package main

import (
	"fmt"

	"cisp"
	"cisp/internal/cities"
	"cisp/internal/geo"
	"cisp/internal/obs"
	"cisp/internal/traffic"
	"cisp/internal/weather"
)

// The plan workload is the planner's job on the §6.4 design point that
// BenchmarkPacketMode and Fig6Scale use: the first 94 US centers plus the
// six Google data-center sites, the 4:3:3 City-City : City-DC : DC-DC
// mix, scenario seed 40. The design point is fixed; the workload seed
// draws the weather season the plan is checked against.
const (
	planScenarioSeed  = 40
	planCities        = 94
	planAggregateGbps = 50 // the small-scale §6.4 operating point
	planWeatherDays   = 60
	planSetupReps     = 5
)

// planInputs is what the planner hands the program.
type planInputs struct {
	sites []cisp.City
	mix   cisp.TrafficMatrix
	gen   *weather.Generator
}

// planOutputs are the figures checked against the recorded values.
type planOutputs struct {
	meanStretch float64
	towersUsed  int
	costPerGB   float64
	weatherP99  float64 // median across pairs of the per-pair p99 stretch
}

func planSetup(seed int64) planInputs {
	sites := append(cities.USCenters()[:planCities:planCities], cities.GoogleDCs()...)
	cityIdx := make([]int, planCities)
	for i := range cityIdx {
		cityIdx[i] = i
	}
	dcIdx := make([]int, len(sites)-planCities)
	for i := range dcIdx {
		dcIdx[i] = planCities + i
	}
	mix := traffic.Mix([]float64{4, 3, 3},
		traffic.PopulationProduct(sites),
		traffic.CityToDC(sites, cityIdx, dcIdx),
		traffic.UniformPairs(len(sites), dcIdx))
	pts := make([]geo.Point, len(sites))
	for i, c := range sites {
		pts[i] = c.Loc
	}
	// Generator and interval seeds follow Fig 7's convention.
	return planInputs{sites: sites, mix: mix, gen: weather.NewRegionGenerator(seed+77, pts)}
}

func runPlan(opt options, tr *tracer) *pass {
	p := newPass()
	var in planInputs
	for i := 0; i < planSetupReps; i++ {
		p.setupS = append(p.setupS, fresh(func() { in = planSetup(opt.seed) }))
	}

	var outs []planOutputs
	var s *cisp.Scenario
	var plan *cisp.Plan
	reg := observe(tr != nil, func() {
		p.jobS = repeat(opt.seconds, func() {
			p.attempted++
			tr.do("plan", func() {
				var out planOutputs
				var err error
				out, s, plan, err = planJob(in, opt.seed, tr)
				if err != nil {
					p.fail("plan: %v", err)
					return
				}
				outs = append(outs, out)
				checkPlan(p, opt.seed, out, outs[0])
			})
		})
	})
	p.report("plan_s", median(p.jobS), "s", fmt.Sprintf("median of %d", len(p.jobS)))

	if tr != nil && s != nil {
		jobs := float64(len(p.jobS))
		p.layer("cisp.new_scenario_s", tr.seconds("cisp.new_scenario"))
		p.layer("linkbuild.feasible_hops", float64(s.Links.FeasibleHops()))
		p.layer("towers.count", float64(s.Registry.Len()))
		p.layer("design.greedy_s", tr.seconds("design.greedy"))
		designCounters(p, reg, jobs)
		p.layer("capacity.provision_s", tr.seconds("capacity.provision"))
		p.layer("capacity.hop_installs", float64(plan.HopInstalls))
		p.layer("weather.analyze_year_s", tr.seconds("weather.analyze_year"))
	}
	return p
}

// planJob is one plan: Step 1 scenario, greedy design at the default
// budget, Step 3 provisioning and pricing, then the design's stretch over
// a shortened weather year.
func planJob(in planInputs, seed int64, tr *tracer) (planOutputs, *cisp.Scenario, *cisp.Plan, error) {
	var s *cisp.Scenario
	tr.do("cisp.new_scenario", func() {
		s = cisp.NewScenario(cisp.ScenarioConfig{Region: cisp.US, Scale: cisp.ScaleSmall, Seed: planScenarioSeed, Sites: in.sites})
	})
	var top *cisp.Topology
	var err error
	tr.do("design.greedy", func() { top, err = s.DesignGreedy(in.mix, s.DefaultBudget()) })
	if err != nil {
		return planOutputs{}, nil, nil, fmt.Errorf("greedy design: %w", err)
	}
	var plan *cisp.Plan
	tr.do("capacity.provision", func() { plan = s.Provision(top, cisp.ScaleTraffic(in.mix, planAggregateGbps)) })
	var cost float64
	tr.do("cost.per_gb", func() { cost = s.CostPerGB(plan, planAggregateGbps) })
	var an *weather.YearAnalysis
	tr.do("weather.analyze_year", func() {
		an = weather.AnalyzeYear(top, s.Links, in.gen, weather.Config{Days: planWeatherDays, Seed: seed})
	})
	if err := checkYear(an); err != nil {
		return planOutputs{}, nil, nil, err
	}
	return planOutputs{
		meanStretch: top.MeanStretch(),
		towersUsed:  plan.TowersUsed,
		costPerGB:   cost,
		weatherP99:  weather.Median(an.P99),
	}, s, plan, nil
}

// checkYear holds the weather analysis to the invariants every seed must
// meet: one record per day, and per pair best ≤ p99 ≤ worst, up to the
// rounding of the p99's interpolation between equal samples.
func checkYear(an *weather.YearAnalysis) error {
	if len(an.FailedLinksPerDay) != planWeatherDays || len(an.P99) == 0 {
		return fmt.Errorf("weather: %d days and %d pairs analysed", len(an.FailedLinksPerDay), len(an.P99))
	}
	for k := range an.P99 {
		if tol := 1e-12 * an.Worst[k]; !(an.Best[k]-tol <= an.P99[k] && an.P99[k] <= an.Worst[k]+tol) {
			return fmt.Errorf("weather: pair %d has best %v, p99 %v, worst %v", k, an.Best[k], an.P99[k], an.Worst[k])
		}
	}
	return nil
}

// checkPlan compares a plan's figures with the recorded ones, exactly:
// the design figures on every seed (the design point does not depend on
// it), the weather figure on the seeds it was recorded for. Every job of
// a run must also agree with the first.
func checkPlan(p *pass, seed int64, out, first planOutputs) {
	want := planDesignGolden
	want.weatherP99 = out.weatherP99
	if g, ok := planWeatherP99Golden[seed]; ok {
		want.weatherP99 = g
	}
	if out != want {
		p.fail("plan seed %d: got %+v, want %+v", seed, out, want)
	} else if out != first {
		p.fail("plan seed %d: job differs from the run's first: %+v vs %+v", seed, out, first)
	}
}

// designCounters reads the Step-2 work counters the design package
// exports, per job.
func designCounters(p *pass, reg *obs.Registry, jobs float64) {
	p.layer("design.step2_iterations", float64(reg.Counter("cisp_design_step2_iterations_total").Value())/jobs)
	p.layer("design.gain_evals", float64(reg.Counter("cisp_design_gain_evals_total").Value())/jobs)
	p.layer("design.apsp_updates", float64(reg.Counter("cisp_design_apsp_updates_total").Value())/jobs)
}
