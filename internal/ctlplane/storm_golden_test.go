package ctlplane

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"

	"cisp/internal/cities"
	"cisp/internal/obs"
)

// TestStormSnapshotGolden pins the bytes of every snapshot a 40-site
// daemon publishes while it absorbs the seed-1, 3-day DrawStream storm,
// batched by event time. Hard failures drive TE re-enumeration over
// downed links and FRR rescues, so this is the end-to-end golden of the
// control plane's path choices. It also pins the TE work the storm costs,
// exactly: reoptimizations and LP solves are seed-deterministic counts, so
// any rise is a regression in the warm path, not noise.
func TestStormSnapshotGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("40-site storm golden: skipped with -short")
	}
	const (
		want       = "886765e19d85d357f16bcf0017b3b1d5b1677ce8273a10268d342ac4c341049a"
		wantReopts = 695
		wantSolves = 1652
	)
	// A private sink keeps the counts to this run; no clock, so timers
	// stay off.
	reg := obs.NewRegistry()
	defer obs.SetActive(obs.SetActive(&obs.Sink{Reg: reg}))
	cs := cities.USCenters()
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].Population > cs[j].Population })
	b := SyntheticBackbone(cs[:40], 2, 10, 40)
	evs := DrawStream(b, StreamConfig{Seed: 1, Horizon: 3 * 86400})
	h := sha256.New()
	snaps := 0
	d, err := New(Config{Backbone: b, Comms: GravityCommodities(b.Sites, 50), OnPublish: func(s *Snapshot) {
		h.Write(s.JSON())
		snaps++
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < len(evs); {
		var batch []Event
		at := evs[i].At
		for ; i < len(evs) && evs[i].At == at; i++ {
			batch = append(batch, evs[i].Ev)
		}
		if _, err := d.Apply(batch); err != nil {
			t.Fatalf("batch at %v: %v", at, err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("storm snapshot digest %s over %d snapshots from %d events, want %s", got, snaps, len(evs), want)
	}
	if got := reg.Counter("cisp_te_reopts_total").Value(); got != wantReopts {
		t.Errorf("storm TE reopts %d, want %d", got, wantReopts)
	}
	if got := reg.Counter("cisp_te_lp_solves_total").Value(); got != wantSolves {
		t.Errorf("storm LP solves %d, want %d", got, wantSolves)
	}
}
