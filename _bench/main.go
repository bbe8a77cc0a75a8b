// Command bench is the cISP pipeline benchmark. It runs one of three
// workloads — plan (Steps 1–3 plus a weather season on the §6.4 design
// point), replay (packet and fluid replays over the BENCH_netsim design
// point) and ctl-storm (a seeded event storm against an in-process cispd
// daemon on loopback) — checks the program's outputs, and prints one JSON
// result as the last line of standard output:
//
//	bash _bench/run.sh --workload plan --seed 40 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is made twice, untraced and then traced, and the
// result carries the per-layer metrics plus the tracing overhead. See
// NOTES.md for why each workload and metric was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workload runs one pass of a workload. tr is nil in the untraced pass.
type workload func(opt options, tr *tracer) *pass

var workloads = map[string]workload{
	"plan":      runPlan,
	"replay":    runReplay,
	"ctl-storm": runStorm,
}

type options struct {
	seed    int64
	seconds float64
}

// pass is what one execution of a workload measured and checked.
type pass struct {
	attempted, failed int
	setupS            []float64 // wall seconds of each set-up repetition
	jobS              []float64 // wall seconds of each job (the unit a user waits for)
	named             []named   // the workload's own end-to-end figures
	layers            map[string]float64
}

// named is one of a workload's own end-to-end figures, printed by name
// above the result line.
type named struct {
	name  string
	value float64
	unit  string
	note  string // sample count or why the figure is missing
}

func newPass() *pass { return &pass{layers: map[string]float64{}} }

// fail records a failed operation: an error, or an output that differs
// from what the program must produce.
func (p *pass) fail(format string, args ...any) {
	p.failed++
	fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
}

func (p *pass) report(name string, value float64, unit, note string) {
	p.named = append(p.named, named{name, value, unit, note})
}

// layer sets a per-layer metric; the name must be one of perLayer.
func (p *pass) layer(name string, v float64) {
	if _, ok := layerUnit[name]; !ok {
		panic("bench: per-layer metric " + name + " is not in the table")
	}
	p.layers[name] = v
}

// End-to-end metrics, reported by every workload from its untraced run.
// What a job is differs by workload: one plan, one packet+fluid replay
// pass, one event batch absorbed in the closed-loop drain of the storm.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"job_s", "s"},
	{"max_rss_mb", "MB"},
}

// Per-layer metrics, reported by every workload from its traced run; a
// layer the workload does not call reads 0.
var perLayer = []struct{ name, unit string }{
	{"cisp.new_scenario_s", "s"},
	{"linkbuild.feasible_hops", "count"},
	{"towers.count", "count"},
	{"design.greedy_s", "s"},
	{"design.step2_iterations", "count"},
	{"design.gain_evals", "count"},
	{"design.apsp_updates", "count"},
	{"capacity.provision_s", "s"},
	{"capacity.hop_installs", "count"},
	{"weather.analyze_year_s", "s"},
	{"experiments.designed_mix_s", "s"},
	{"netsim.packet_run_s", "s"},
	{"netsim.packet_events", "count"},
	{"netsim.packet_ns_per_event", "ns"},
	{"netsim.packet_heap_max", "count"},
	{"netsim.packet_drops", "count"},
	{"netsim.fluid_run_s", "s"},
	{"netsim.fluid_events", "count"},
	{"netsim.fluid_ns_per_event", "ns"},
	{"netsim.fluid_heap_max", "count"},
	{"te.reopts", "count"},
	{"te.reopt_commodities", "count"},
	{"te.reopt_s", "s"},
	{"te.lp_solves", "count"},
	{"lp.pivots", "count"},
	{"lp.solve_s", "s"},
	{"ctlplane.publishes", "count"},
	{"ctlplane.publish_s", "s"},
	{"ctlplane.drain_other_s", "s"},
	{"ctlplane.snapshot_bytes", "bytes"},
	{"resilience.frr_activations", "count"},
	{"ctlplane.frr_lp_solves", "count"},
	{"ctlplane.boot_s", "s"},
	{"ctlplane.draw_stream_s", "s"},
	{"ctlplane.event_p50_ms", "ms"},
	{"ctlplane.event_p90_ms", "ms"},
	{"ctlplane.read_p50_ms", "ms"},
	{"ctlplane.read_p99_ms", "ms"},
	{"loadgen.late_p90_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"trace.overhead_pct", "%"},
}

var layerUnit = func() map[string]string {
	m := map[string]string{}
	for _, l := range perLayer {
		m[l.name] = l.unit
	}
	return m
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// watchdog ends a run that hangs, well inside the 180 s a run may take;
// the slowest traced run takes about half of it on a 2-core box.
const watchdog = 175 * time.Second

func main() {
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "bench: no result after %v\n", watchdog)
		os.Exit(1)
	})
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "plan, replay or ctl-storm")
	seed := fs.Int64("seed", 1, "workload seed: the inputs are a pure function of it")
	seconds := fs.Float64("seconds", 20, "how long a run measures")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload plan|replay|ctl-storm, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds}

	var res result
	if *trace == 0 {
		p := w(opt, nil)
		printNamed(stdout, *name, opt, p)
		values := map[string]float64{"setup_s": median(p.setupS), "job_s": median(p.jobS), "max_rss_mb": maxRSSMB()}
		res = result{Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
		}
	} else {
		untraced := w(opt, nil)
		tr := newTracer()
		traced := w(opt, tr)
		printNamed(stdout, *name, opt, traced)
		traced.layer("trace.overhead_pct", (median(traced.jobS)/median(untraced.jobS)-1)*100)
		res = result{Attempted: untraced.attempted + traced.attempted, Failed: untraced.failed + traced.failed, Metrics: map[string]metric{}}
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{traced.layers[l.name], l.unit}
			fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", l.name, traced.layers[l.name], l.unit)
		}
		if err := tr.write(spanPath(*name, opt.seed)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing spans: %v\n", err)
		}
	}
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printNamed prints the workload's own figures by name, with units, and
// its operation counts.
func printNamed(w io.Writer, name string, opt options, p *pass) {
	fmt.Fprintf(w, "%s seed %d: %d operations attempted, %d failed\n", name, opt.seed, p.attempted, p.failed)
	fmt.Fprintf(w, "  %-28s %14.6g s     (median of %d)\n", "setup_s", median(p.setupS), len(p.setupS))
	for _, n := range p.named {
		fmt.Fprintf(w, "  %-28s %14.6g %-5s (%s)\n", n.name, n.value, n.unit, n.note)
	}
}

// repeat runs job for the measuring window: at least once, and again
// while another job of the last one's length still fits in the window.
// It returns each job's wall seconds.
func repeat(seconds float64, job func()) []float64 {
	var took []float64
	start := time.Now()
	for {
		took = append(took, fresh(job))
		if time.Since(start).Seconds()+took[len(took)-1] > seconds {
			return took
		}
	}
}

// fresh returns fn's wall seconds, timed from a collected heap so that
// garbage left by earlier work neither slows fn nor lifts the peak
// resident set by chance.
func fresh(fn func()) float64 {
	runtime.GC()
	return timed(fn)
}

// timed returns fn's wall seconds.
func timed(fn func()) float64 {
	t := time.Now()
	fn()
	return time.Since(t).Seconds()
}

// maxRSSMB is the process's peak resident set, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// spanPath places the traced run's span list beside the benchmark binary,
// inside the checkout's build directory.
func spanPath(name string, seed int64) string {
	dir := "."
	if exe, err := os.Executable(); err == nil {
		dir = filepath.Dir(exe)
	}
	return filepath.Join(dir, "spans", fmt.Sprintf("%s-seed%d.json", name, seed))
}
