package main

import (
	"fmt"

	"cisp"
	"cisp/internal/cities"
	"cisp/internal/experiments"
	"cisp/internal/netsim"
	"cisp/internal/obs"
	"cisp/internal/traffic"
)

// The replay workload is the researcher's job on the BENCH_netsim design
// point: small scale (25 US centers plus the six data-center sites), the
// 4:3:3 mix designed and provisioned by experiments.DesignedMixTopology,
// then a packet replay of 1,500 flows and a fluid replay of 10⁶ flows on
// shortest paths. The workload seed is the design point's seed.
const (
	replayCities      = 25 // ScaleSmall's city count
	replayPacketFlows = 1500
	replayFluidFlows  = 1_000_000
	replayFlowBytes   = 250 << 10
	replayHorizon     = 300
	replaySetupReps   = 3
)

// engineOutputs are one engine run's figures checked against the seed
// commit's values.
type engineOutputs struct {
	Completed    int
	Events       int64
	FCTMedianSec float64
}

type replayOutputs struct{ Packet, Fluid engineOutputs }

type replayInputs struct {
	packet, fluid *netsim.Scenario
	designTM      traffic.Matrix
}

func replaySetup(seed int64, tr *tracer) (replayInputs, error) {
	opt := experiments.Options{Scale: cisp.ScaleSmall, Seed: seed}
	var links []netsim.TopoLink
	var nodes int
	var tm traffic.Matrix
	var err error
	tr.do("experiments.designed_mix", func() { links, nodes, tm, err = experiments.DesignedMixTopology(opt) })
	if err != nil {
		return replayInputs{}, fmt.Errorf("designed mix topology: %w", err)
	}
	sc := func(flows int) *netsim.Scenario {
		return &netsim.Scenario{
			Nodes: nodes, Links: links,
			Comms:  experiments.MixCommodities(opt, tm, flows),
			Scheme: netsim.ShortestPath, FlowBytes: replayFlowBytes, Horizon: replayHorizon, Seed: seed,
		}
	}
	return replayInputs{packet: sc(replayPacketFlows), fluid: sc(replayFluidFlows), designTM: tm}, nil
}

func runReplay(opt options, tr *tracer) *pass {
	p := newPass()
	var in replayInputs
	for i := 0; i < replaySetupReps; i++ {
		var err error
		p.setupS = append(p.setupS, fresh(func() { in, err = replaySetup(opt.seed, tr) }))
		if err != nil {
			p.attempted++
			p.fail("replay setup: %v", err)
			return p
		}
	}

	var packetS, fluidS []float64
	var first replayOutputs
	reg := observe(tr != nil, func() {
		p.jobS = repeat(opt.seconds, func() {
			var out replayOutputs
			var pr, fr *netsim.ScenarioResult
			packetS = append(packetS, timed(func() { tr.do("netsim.packet_run", func() { pr = in.packet.Run(netsim.PacketMode) }) }))
			fluidS = append(fluidS, timed(func() { tr.do("netsim.fluid_run", func() { fr = in.fluid.Run(netsim.FluidMode) }) }))
			out.Packet = engineOutputsOf(pr)
			out.Fluid = engineOutputsOf(fr)
			p.attempted += 2
			if len(packetS) == 1 {
				first = out
			}
			checkReplay(p, opt.seed, out, first)
		})
	})
	p.report("packet_flows_per_s", float64(first.Packet.Completed)/median(packetS), "1/s", fmt.Sprintf("median of %d", len(packetS)))
	p.report("fluid_flows_per_s", float64(first.Fluid.Completed)/median(fluidS), "1/s", fmt.Sprintf("median of %d", len(fluidS)))

	if tr != nil {
		p.layer("experiments.designed_mix_s", tr.seconds("experiments.designed_mix"))
		engineCounters(p, reg, "packet", tr.seconds("netsim.packet_run"))
		engineCounters(p, reg, "fluid", tr.seconds("netsim.fluid_run"))
		p.layer("netsim.packet_drops", perRun(reg, "cisp_netsim_drops_total", "packet"))
		stepOne(p, opt.seed, in.designTM, tr)
	}
	return p
}

func engineOutputsOf(r *netsim.ScenarioResult) engineOutputs {
	return engineOutputs{
		Completed:    r.Completed,
		Events:       r.EventsProcessed,
		FCTMedianSec: netsim.Percentile(r.FCTs(), 50),
	}
}

// checkReplay compares a pass with the recorded figures where they
// were recorded for this seed; on any seed every pass must repeat the
// run's first, and no engine may complete more flows than it was given.
func checkReplay(p *pass, seed int64, out, first replayOutputs) {
	if want, ok := replayGolden[seed]; ok && out != want {
		p.fail("replay seed %d: got %+v, want %+v", seed, out, want)
	} else if out != first {
		p.fail("replay seed %d: pass differs from the run's first: %+v vs %+v", seed, out, first)
	} else if out.Packet.Completed > replayPacketFlows || out.Fluid.Completed > replayFluidFlows || out.Packet.Events == 0 || out.Fluid.Events == 0 {
		p.fail("replay seed %d: impossible counts %+v", seed, out)
	}
}

// engineCounters reads an engine's exported counters, per run, and the
// wall time per event from the benchmark's own span.
func engineCounters(p *pass, reg *obs.Registry, mode string, runS float64) {
	events := perRun(reg, "cisp_netsim_events_total", mode)
	p.layer("netsim."+mode+"_run_s", runS)
	p.layer("netsim."+mode+"_events", events)
	if events > 0 {
		p.layer("netsim."+mode+"_ns_per_event", runS*1e9/events)
	}
	p.layer("netsim."+mode+"_heap_max", reg.Gauge("cisp_netsim_heap_depth_max", "mode", mode).Value())
}

func perRun(reg *obs.Registry, counter, mode string) float64 {
	runs := reg.Counter("cisp_netsim_runs_total", "mode", mode).Value()
	if runs == 0 {
		return 0
	}
	return float64(reg.Counter(counter, "mode", mode).Value()) / float64(runs)
}

// stepOne splits the design point's set-up between Step 1 and Step 2 by
// building the same scenario and design experiments.DesignedMixTopology
// builds, one layer call at a time. Traced runs only.
func stepOne(p *pass, seed int64, designTM traffic.Matrix, tr *tracer) {
	sites := append(cities.USCenters()[:replayCities:replayCities], cities.GoogleDCs()...)
	var s *cisp.Scenario
	reg := observe(true, func() {
		tr.do("cisp.new_scenario", func() {
			s = cisp.NewScenario(cisp.ScenarioConfig{Region: cisp.US, Scale: cisp.ScaleSmall, Seed: seed, Sites: sites})
		})
		tr.do("design.greedy", func() {
			if _, err := s.DesignGreedy(designTM, s.DefaultBudget()); err != nil {
				p.fail("replay step-one greedy: %v", err)
			}
		})
	})
	p.layer("cisp.new_scenario_s", tr.seconds("cisp.new_scenario"))
	p.layer("linkbuild.feasible_hops", float64(s.Links.FeasibleHops()))
	p.layer("towers.count", float64(s.Registry.Len()))
	p.layer("design.greedy_s", tr.seconds("design.greedy"))
	designCounters(p, reg, 1)
}
