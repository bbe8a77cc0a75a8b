package resilience

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cisp/internal/netsim"
	"cisp/internal/te"
	"cisp/internal/units"
)

// goldenTopo is one fixture of the path golden: a node count, its duplex
// links and all-pairs commodities.
type goldenTopo struct {
	name  string
	n     int
	links []netsim.TopoLink
	comms []netsim.Commodity
}

// allPairs is one commodity per ordered node pair, with demands drawn from
// a five-level ladder so the utilization-aware schemes see both ties and
// ordering.
func allPairs(n int) []netsim.Commodity {
	var comms []netsim.Commodity
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				comms = append(comms, netsim.Commodity{Flow: len(comms), Src: s, Dst: d, Demand: units.BitsPerSecond(1e8 * float64(1+(7*s+3*d)%5))})
			}
		}
	}
	return comms
}

// unitGrid is a 5×5 grid with identical delays and capacities: every
// shortest path ties with many others, so any change to a tie rule moves
// the golden.
func unitGrid() goldenTopo {
	const side = 5
	id := func(r, c int) int { return r*side + c }
	var links []netsim.TopoLink
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				links = append(links, netsim.TopoLink{A: id(r, c), B: id(r, c+1), RateBps: 10e9, PropDelay: 0.001})
			}
			if r+1 < side {
				links = append(links, netsim.TopoLink{A: id(r, c), B: id(r+1, c), RateBps: 10e9, PropDelay: 0.001})
			}
		}
	}
	return goldenTopo{name: "grid5", n: side * side, links: links, comms: allPairs(side * side)}
}

// irregular is a seeded 18-node ring with random chords, random delays and
// random capacities.
func irregular() goldenTopo {
	const n = 18
	rng := rand.New(rand.NewSource(13))
	seen := map[[2]int]bool{}
	var links []netsim.TopoLink
	add := func(a, b int) {
		if a == b || seen[pairKey(a, b)] {
			return
		}
		seen[pairKey(a, b)] = true
		links = append(links, netsim.TopoLink{A: a, B: b,
			RateBps: units.BitsPerSecond(1e9 * float64(1+rng.Intn(20))), PropDelay: units.Seconds(0.0005 + 0.01*rng.Float64())})
	}
	for i := 0; i < n; i++ {
		add(i, (i+1)%n)
	}
	for k := 0; k < 2*n; k++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	return goldenTopo{name: "irregular18", n: n, links: links, comms: allPairs(n)}
}

func writePaths(h hash.Hash, label string, paths map[int][]int) {
	flows := make([]int, 0, len(paths))
	for f := range paths {
		flows = append(flows, f)
	}
	sort.Ints(flows)
	for _, f := range flows {
		fmt.Fprintf(h, "%s %d %v\n", label, f, paths[f])
	}
}

// pathDigest hashes every shortest-path consumer above the TE graph on one
// topology: te.Candidates at two (K, stretch) settings, netsim.ComputeRoutes
// under all three schemes, and the protection layer's backups and its
// availability walk in all three modes over a seeded link schedule.
func pathDigest(t *testing.T, g goldenTopo) string {
	t.Helper()
	h := sha256.New()
	for _, cfg := range []te.Config{{K: 4, Stretch: 1.5}, {K: 8, Stretch: 3}} {
		cands, err := te.Candidates(g.n, g.links, g.comms, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, ps := range cands {
			for _, p := range ps {
				fmt.Fprintf(h, "cand K=%d s=%v %d %v %v\n", cfg.K, cfg.Stretch, i, p.Nodes, p.Delay)
			}
		}
	}
	for _, scheme := range []netsim.Scheme{netsim.ShortestPath, netsim.MinMaxUtilization, netsim.ThroughputOptimal} {
		writePaths(h, scheme.String(), netsim.ComputeRoutes(g.n, g.links, g.comms, scheme))
	}
	sp := netsim.ComputeRoutes(g.n, g.links, g.comms, netsim.ShortestPath)
	prim := make(map[int][]netsim.SplitPath, len(sp))
	for f, path := range sp {
		prim[f] = []netsim.SplitPath{{Path: path, Frac: 1}}
	}
	p, err := NewProtection(g.n, g.links, g.comms, prim, Config{K: 8, Stretch: 1.5, DetectDelay: 0.05, ReoptDelay: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range g.comms {
		if b, ok := p.Backups[c.Flow]; ok {
			fmt.Fprintf(h, "backup %d %v %v %d\n", c.Flow, b.Path, b.Delay, b.Shared)
		}
	}
	sched := DrawSchedule(LinkElements(len(g.links), 20*86400, 12*3600), len(g.links), 90*86400, 3)
	for _, mode := range []Mode{NoProtection, FRR, FRRReopt} {
		fmt.Fprintf(h, "avail %+v\n", p.Availability(sched, mode))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPathGoldens pins every path the shortest-path consumers choose —
// candidates, §5 routes, backups, rescues — to digests recorded before
// they shared one kernel. A tie rule or edge order that drifts moves a
// digest.
func TestPathGoldens(t *testing.T) {
	want := map[string]string{
		"grid5":       "1c49a191a8734b3577a698f44ba373fabce898da8cd0f63c5bfb8aa8a65644de",
		"irregular18": "5062ee7169886ab1b53903dbd6428060a9466e60be0ed70fe433fbda60ad8bbc",
	}
	for _, g := range []goldenTopo{unitGrid(), irregular()} {
		if got := pathDigest(t, g); got != want[g.name] {
			t.Errorf("%s path digest %s, want %s", g.name, got, want[g.name])
		}
	}
}

// TestNewProtectionRejectsBadLink: a link endpoint outside [0, nodes) is a
// caller error reported by the TE validation, never an index panic in the
// protection layer's own graph build.
func TestNewProtectionRejectsBadLink(t *testing.T) {
	links := []netsim.TopoLink{{A: 0, B: 1, RateBps: 1e9, PropDelay: 0.001}, {A: 1, B: 8, RateBps: 1e9, PropDelay: 0.001}}
	comms := []netsim.Commodity{{Flow: 1, Src: 0, Dst: 1, Demand: 1e6}}
	_, err := NewProtection(4, links, comms, nil, Config{})
	if err == nil || !strings.Contains(err.Error(), "outside node range") {
		t.Fatalf("NewProtection with link 1-8 on 4 nodes: err %v, want te's outside node range error", err)
	}
}
