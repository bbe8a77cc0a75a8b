package main

// Outputs recorded when the benchmark was added; a faster program must
// reproduce them exactly. Each workload has its default seed and one
// held-out seed, so a claim can be checked on a seed its author did not
// tune on. ctl-storm needs no table: every run checks it against a serial
// oracle.

// planDesignGolden is the plan design point's figures. The design does
// not depend on the workload seed, so these hold on every seed;
// weatherP99 is taken from planWeatherP99Golden.
var planDesignGolden = planOutputs{
	meanStretch: 1.1990301905262324,
	towersUsed:  1819,
	costPerGB:   0.82720700152207,
}

// planWeatherP99Golden is the weather figure per seed: 40 is the
// default, 41 held out.
var planWeatherP99Golden = map[int64]float64{
	40: 1.2442668313762448,
	41: 1.2259560438011499,
}

// replayGolden is the replay figures per seed: 1 is the default (the
// BENCH_netsim design point), 2 held out.
var replayGolden = map[int64]replayOutputs{
	1: {
		Packet: engineOutputs{Completed: 1500, Events: 2221395, FCTMedianSec: 1.366745356394216},
		Fluid:  engineOutputs{Completed: 113937, Events: 1000085, FCTMedianSec: 153.37717081175927},
	},
	2: {
		Packet: engineOutputs{Completed: 1500, Events: 2235994, FCTMedianSec: 1.120041839109311},
		Fluid:  engineOutputs{Completed: 162609, Events: 1000093, FCTMedianSec: 53.98937922846768},
	},
}
