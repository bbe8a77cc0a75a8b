package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cisp/internal/cities"
	"cisp/internal/ctlplane"
	"cisp/internal/obs"
)

// The ctl-storm workload is the operator's job: an in-process cispd
// daemon (ctlplane.Daemon) serving HTTP on loopback, over the
// SyntheticBackbone of the 40 most populous US centers with cispd's
// defaults, absorbing a seeded weather-and-failure storm. The storm is
// fixed (three modeled days of stream seed 1, 695 events in 136 batches,
// one POST /v1/events per storm step) so every run does the same work;
// the workload seed draws the arrival times of the batches and of the
// snapshot reads.
const (
	stormSites      = 40
	stormNearestK   = 2
	stormMwGbps     = 10
	stormFiberGbps  = 40
	stormAggGbps    = 50
	stormStreamSeed = 1
	stormHorizon    = 3 * 86400 // modeled seconds
	// stormEventRate is the phase-1 offered load in events per second:
	// about half the in-process drain rate when it was added (62 events/s on
	// a 2-core box), so the open loop measures latency, not overload.
	stormEventRate = 31
	stormReadRate  = 100 // snapshot GETs per second in phase 1
)

// stormRig is one booted daemon with the storm it will absorb.
type stormRig struct {
	d       *ctlplane.Daemon
	srv     *ctlplane.Server // nil for the in-process oracle
	base    string
	batches [][]ctlplane.Event
}

func bootStorm(tr *tracer, serve bool) (*stormRig, error) {
	cs := cities.USCenters()
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].Population > cs[j].Population })
	var b *ctlplane.Backbone
	tr.do("ctlplane.synthetic_backbone", func() { b = ctlplane.SyntheticBackbone(cs[:stormSites], stormNearestK, stormMwGbps, stormFiberGbps) })
	var evs []ctlplane.TimedEvent
	tr.do("ctlplane.draw_stream", func() {
		evs = ctlplane.DrawStream(b, ctlplane.StreamConfig{Seed: stormStreamSeed, Horizon: stormHorizon})
	})
	rig := &stormRig{batches: batchByTime(evs)}
	var err error
	tr.do("ctlplane.boot", func() {
		rig.d, err = ctlplane.New(ctlplane.Config{Backbone: b, Comms: ctlplane.GravityCommodities(b.Sites, stormAggGbps)})
	})
	if err != nil {
		return nil, fmt.Errorf("booting daemon: %w", err)
	}
	if serve {
		if rig.srv, err = rig.d.Serve("127.0.0.1:0", nil); err != nil {
			rig.d.Close()
			return nil, fmt.Errorf("serving daemon: %w", err)
		}
		rig.base = "http://" + rig.srv.Addr()
	}
	return rig, nil
}

func (r *stormRig) close() {
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		r.srv.Shutdown(ctx) // closes the daemon too; an unclean drain changes no measurement
		return
	}
	r.d.Close()
}

// batchByTime groups a stream's events by modeled timestamp: one batch
// per storm step.
func batchByTime(evs []ctlplane.TimedEvent) [][]ctlplane.Event {
	var out [][]ctlplane.Event
	for i := 0; i < len(evs); {
		j := i
		var b []ctlplane.Event
		for ; j < len(evs) && evs[j].At == evs[i].At; j++ {
			b = append(b, evs[j].Ev)
		}
		out = append(out, b)
		i = j
	}
	return out
}

// stormPrefix is the storm's leading batches that phase 1 can offer at
// stormEventRate within the measuring window.
func stormPrefix(batches [][]ctlplane.Event, seconds float64) [][]ctlplane.Event {
	budget := int(stormEventRate * seconds)
	n := 0
	for i, b := range batches {
		if n+len(b) > budget {
			return batches[:i]
		}
		n += len(b)
	}
	return batches
}

func runStorm(opt options, tr *tracer) *pass {
	p := newPass()
	// Three daemons, each set up the way cispd boots: phase 1, phase 2,
	// and the serial oracle both phases are checked against.
	var rigs [3]*stormRig
	for i := range rigs {
		var err error
		p.setupS = append(p.setupS, fresh(func() { rigs[i], err = bootStorm(tr, i < 2) }))
		if err != nil {
			p.attempted++
			p.fail("ctl-storm setup: %v", err)
			return p // the rigs already booted are closed by their defers
		}
		defer rigs[i].close()
	}
	for i := 1; i < len(rigs); i++ {
		if !reflect.DeepEqual(rigs[i].batches, rigs[0].batches) {
			p.fail("ctl-storm: stream %d differs from stream 0", i)
		}
	}
	batches := stormPrefix(rigs[0].batches, opt.seconds)
	events := 0
	for _, b := range batches {
		events += len(b)
	}
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		var err error
		if bodies[i], err = json.Marshal(map[string]any{"events": b}); err != nil {
			p.fail("encoding batch %d: %v", i, err)
			return p
		}
	}

	// The oracle first: its per-batch versions and final bytes are what
	// both phases must reproduce over HTTP.
	wantVersions, wantFinal, frrLPSolves, err := oracle(rigs[2].d, batches)
	p.attempted++
	if err != nil {
		p.fail("ctl-storm oracle: %v", err)
		return p
	}
	if frrLPSolves != 0 {
		p.fail("ctl-storm: %v LP solves on the fast-reroute path, want 0", frrLPSolves)
	}

	// Phase 1: open loop, batches and reads each on their own connection.
	runtime.GC()
	rng := rand.New(rand.NewSource(opt.seed))
	gaps := make([]time.Duration, len(batches))
	var span time.Duration
	for i, b := range batches {
		gaps[i] = time.Duration(float64(len(b)) / stormEventRate * float64(time.Second))
		span += gaps[i]
	}
	writeDue := poissonSchedule(rng, gaps)
	readGaps := make([]time.Duration, int(span.Seconds()*stormReadRate))
	for i := range readGaps {
		readGaps[i] = time.Second / stormReadRate
	}
	readDue := poissonSchedule(rng, readGaps)

	writer, reader := newConn(), newConn()
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()
	var writes, reads loadResult
	var readFails []string
	var wg sync.WaitGroup
	c := newWallClock()
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last [2]uint64
		reads = openLoop(c, readDue, func(int) error {
			v, err := getSnapshot(reader, rigs[0].base, nil)
			if err == nil && (v[0] < last[0] || v[0] == last[0] && v[1] < last[1]) {
				err = fmt.Errorf("read version %v after %v", v, last)
			}
			if err != nil {
				readFails = append(readFails, err.Error())
				return err
			}
			last = v
			return nil
		})
	}()
	writeVersions := make([]uint64, len(batches))
	var writeFails []string
	writes = openLoop(c, writeDue, func(i int) error {
		v, err := postBatch(writer, rigs[0].base, bodies[i], len(batches[i]))
		if err != nil {
			writeFails = append(writeFails, err.Error())
		}
		writeVersions[i] = v
		return err
	})
	wg.Wait()
	p.attempted += len(batches) + len(readDue)
	for _, f := range append(writeFails, readFails...) {
		p.fail("ctl-storm phase 1: %s", f)
	}
	checkStormPhase(p, "phase 1", writer, rigs[0].base, writeVersions, wantVersions, wantFinal)

	// Phase 2: the same batches, closed loop, into a fresh daemon. A job
	// is one batch absorbed: posted, applied, its snapshot published.
	drainVersions := make([]uint64, len(batches))
	var drain float64
	var finalBytes int
	runtime.GC()
	reg := observe(tr != nil, func() {
		drain = timed(func() {
			tr.do("ctlplane.drain", func() {
				for i := range batches {
					var v uint64
					var err error
					p.jobS = append(p.jobS, timed(func() { v, err = postBatch(writer, rigs[1].base, bodies[i], len(batches[i])) }))
					if err != nil {
						p.fail("ctl-storm phase 2 batch %d: %v", i, err)
					}
					drainVersions[i] = v
				}
			})
		})
	})
	p.attempted += len(batches)
	finalBytes = checkStormPhase(p, "phase 2", writer, rigs[1].base, drainVersions, wantVersions, wantFinal)

	eventLat, eventErr := percentile(writes.LatencyMs, 50)
	eventTail, tailErr := percentile(writes.LatencyMs, 90)
	readLat, readErr := percentile(reads.LatencyMs, 50)
	readTail, readTailErr := percentile(reads.LatencyMs, 99)
	late, lateErr := percentile(writes.LateMs, 90)
	reportQuantile(p, "event_p50_ms", eventLat, eventErr)
	reportQuantile(p, "event_p90_ms", eventTail, tailErr)
	p.report("events_per_s", float64(events)/drain, "1/s", fmt.Sprintf("%d events in %d batches", events, len(batches)))
	reportQuantile(p, "read_p50_ms", readLat, readErr)
	reportQuantile(p, "read_p99_ms", readTail, readTailErr)

	if tr != nil {
		p.layer("ctlplane.boot_s", tr.seconds("ctlplane.boot"))
		p.layer("ctlplane.draw_stream_s", tr.seconds("ctlplane.draw_stream"))
		p.layer("te.reopts", float64(reg.Counter("cisp_te_reopts_total").Value()))
		p.layer("te.reopt_commodities", float64(reg.Counter("cisp_te_reopt_commodities_total").Value()))
		reoptS := reg.Histogram("cisp_te_reopt_seconds").Sum()
		publishS := reg.Histogram("cisp_ctlplane_publish_seconds").Sum()
		p.layer("te.reopt_s", reoptS)
		p.layer("te.lp_solves", float64(reg.Counter("cisp_te_lp_solves_total").Value()))
		p.layer("lp.pivots", float64(reg.Counter("cisp_lp_pivots_total").Value()))
		p.layer("lp.solve_s", reg.Histogram("cisp_lp_solve_seconds").Sum())
		frr := reg.Counter("cisp_ctlplane_snapshots_total", "kind", ctlplane.KindFRR).Value()
		reopt := reg.Counter("cisp_ctlplane_snapshots_total", "kind", ctlplane.KindReopt).Value()
		p.layer("ctlplane.publishes", float64(frr+reopt))
		p.layer("ctlplane.publish_s", publishS)
		// The drain's time outside the two timed daemon stages: HTTP,
		// decoding, fast-reroute patching and the event loop's hand-offs.
		p.layer("ctlplane.drain_other_s", drain-reoptS-publishS)
		p.layer("ctlplane.snapshot_bytes", float64(finalBytes))
		// The daemon's fast-reroute patches are its FRR activations; the
		// resilience package's own counter covers compiled plans only.
		p.layer("resilience.frr_activations", float64(frr))
		p.layer("ctlplane.frr_lp_solves", reg.Gauge("cisp_ctlplane_frr_lp_solves").Value())
		p.layer("ctlplane.event_p50_ms", eventLat.Value)
		p.layer("ctlplane.event_p90_ms", eventTail.Value)
		p.layer("ctlplane.read_p50_ms", readLat.Value)
		p.layer("ctlplane.read_p99_ms", readTail.Value)
		if lateErr == nil {
			p.layer("loadgen.late_p90_ms", late.Value)
		}
		p.layer("loadgen.backlog_max", float64(writes.BacklogMax))
	}
	return p
}

func reportQuantile(p *pass, name string, q quantile, err error) {
	if err != nil {
		p.report(name, 0, "ms", "refused: "+err.Error())
		return
	}
	p.report(name, q.Value, "ms", fmt.Sprintf("%d samples", q.N))
}

// oracle applies the batches serially, in process, under the daemon's
// default fixed clock, and returns the version after each batch, the
// final snapshot bytes, and the LP solves the fast-reroute path made.
func oracle(d *ctlplane.Daemon, batches [][]ctlplane.Event) ([]uint64, []byte, float64, error) {
	reg := obs.NewRegistry()
	prev := obs.SetActive(&obs.Sink{Reg: reg})
	defer obs.SetActive(prev)
	versions := make([]uint64, len(batches))
	for i, b := range batches {
		snap, err := d.Apply(b)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("batch %d: %w", i, err)
		}
		versions[i] = snap.Version
	}
	return versions, d.Snapshot().JSON(), reg.Gauge("cisp_ctlplane_frr_lp_solves").Value(), nil
}

// checkStormPhase compares a phase's per-batch versions and final
// snapshot with the oracle's; a mismatch fails the phase's last batch.
// It returns the final snapshot's size.
func checkStormPhase(p *pass, phase string, c *http.Client, base string, got, want []uint64, wantFinal []byte) int {
	var final bytes.Buffer
	if _, err := getSnapshot(c, base, &final); err != nil {
		p.fail("ctl-storm %s: final snapshot: %v", phase, err)
		return 0
	}
	if !reflect.DeepEqual(got, want) {
		p.fail("ctl-storm %s: per-batch versions differ from the serial oracle's", phase)
	} else if !bytes.Equal(final.Bytes(), wantFinal) {
		p.fail("ctl-storm %s: final snapshot (%d bytes) differs from the serial oracle's (%d bytes)", phase, final.Len(), len(wantFinal))
	}
	return final.Len()
}

// newConn is a client that keeps one connection to the daemon, so a
// slow response holds up the requests behind it as it would for a single
// cispd peer.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// postBatch injects one batch and returns the snapshot version the
// daemon reports after it.
func postBatch(c *http.Client, base string, body []byte, n int) (uint64, error) {
	resp, err := c.Post(base+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var r struct {
		Applied int    `json:"applied"`
		Version uint64 `json:"version"`
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body) // best effort: only decorates the error
		return 0, fmt.Errorf("POST /v1/events: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return 0, fmt.Errorf("POST /v1/events: %w", err)
	}
	if r.Applied != n {
		return r.Version, fmt.Errorf("POST /v1/events applied %d of %d events", r.Applied, n)
	}
	return r.Version, nil
}

// getSnapshot reads the current snapshot, into body when it is non-nil,
// and returns its (epoch, version) from the ETag.
func getSnapshot(c *http.Client, base string, body io.Writer) ([2]uint64, error) {
	var v [2]uint64
	resp, err := c.Get(base + "/v1/snapshot")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if body == nil {
		body = io.Discard
	}
	if _, err := io.Copy(body, resp.Body); err != nil {
		return v, fmt.Errorf("GET /v1/snapshot: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET /v1/snapshot: %s", resp.Status)
	}
	parts := strings.Split(strings.Trim(resp.Header.Get("Etag"), `"`), "-")
	if len(parts) != 2 {
		return v, fmt.Errorf("GET /v1/snapshot: ETag %q", resp.Header.Get("Etag"))
	}
	for i, s := range parts {
		if v[i], err = strconv.ParseUint(s, 10, 64); err != nil {
			return v, fmt.Errorf("GET /v1/snapshot: ETag %q: %w", resp.Header.Get("Etag"), err)
		}
	}
	return v, nil
}
