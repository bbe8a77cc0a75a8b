package graph

import (
	"math"
	"math/rand"
	"testing"
)

// randomLinks draws a connected random duplex link list: a random spanning
// tree plus 2n chords, weights in [0.1, 10.1).
func randomLinks(rng *rand.Rand, n int) (ends [][2]int, w []float64) {
	add := func(a, b int) {
		x := rng.Float64()*10 + 0.1
		ends = append(ends, [2]int{a, b})
		w = append(w, x, x)
	}
	for i := 1; i < n; i++ {
		add(i, rng.Intn(i))
	}
	for i := 0; i < 2*n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			add(u, v)
		}
	}
	return ends, w
}

func duplexOf(n int, ends [][2]int) *Duplex {
	return NewDuplex(n, len(ends), func(i int) (int, int) { return ends[i][0], ends[i][1] })
}

// heapOf is the heap graph over the links whose forward weight is finite
// and not banned (both directions share a weight in these tests).
func heapOf(n int, ends [][2]int, w []float64, edgeBan []bool) *Graph[float64] {
	g := New[float64](n)
	for i, e := range ends {
		if !math.IsInf(w[2*i], 1) && (edgeBan == nil || !edgeBan[2*i]) {
			g.AddEdge(e[0], e[1], w[2*i])
		}
	}
	return g
}

// checkPath verifies that an edge path runs src→dst over consecutive edges
// and weighs dist.
func checkPath(t *testing.T, g *Duplex, w []float64, path []int32, src, dst int, dist float64) {
	t.Helper()
	at, sum := src, 0.0
	for _, e := range path {
		if g.From(e) != at {
			t.Fatalf("path %v: edge %d leaves %d, want %d", path, e, g.From(e), at)
		}
		at = g.To(e)
		sum += w[e]
	}
	if at != dst || sum != dist {
		t.Fatalf("path %v ends at %d weighing %v, want %d weighing %v", path, at, sum, dst, dist)
	}
}

func TestDuplexLayout(t *testing.T) {
	ends := [][2]int{{0, 1}, {2, 0}, {1, 1}, {0, 2}}
	g := duplexOf(3, ends)
	if g.N() != 3 || g.Edges() != 8 {
		t.Fatalf("N=%d Edges=%d, want 3 and 8", g.N(), g.Edges())
	}
	for i, e := range ends {
		if g.From(int32(2*i)) != e[0] || g.To(int32(2*i)) != e[1] || g.From(int32(2*i+1)) != e[1] || g.To(int32(2*i+1)) != e[0] {
			t.Fatalf("link %d %v: edges %d/%d misnumbered", i, e, 2*i, 2*i+1)
		}
	}
	want := [][]int32{{0, 3, 6}, {1, 4, 5}, {2, 7}}
	for u, w := range want {
		got := g.Out(u)
		if len(got) != len(w) {
			t.Fatalf("Out(%d) = %v, want %v", u, got, w)
		}
		for k := range w {
			if got[k] != w[k] {
				t.Fatalf("Out(%d) = %v, want %v (link order)", u, got, w)
			}
		}
	}
}

func TestNewDuplexPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for an end outside [0, n)")
		}
	}()
	duplexOf(4, [][2]int{{0, 1}, {1, 8}})
}

// TestSearchMatchesDijkstra: on random graphs, with and without node bans,
// every search's distance equals the heap Dijkstra's and its path weighs
// exactly that distance.
func TestSearchMatchesDijkstra(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		ends, w := randomLinks(rng, n)
		g := duplexOf(n, ends)
		h := heapOf(n, ends, w, nil)
		s := NewSearch(g)
		var blocked []bool
		if seed%2 == 0 {
			blocked = make([]bool, n)
			for v := range blocked {
				blocked[v] = rng.Intn(5) == 0
			}
		}
		for src := 0; src < n; src++ {
			if blocked != nil && blocked[src] {
				continue
			}
			copy(s.NodeBan, blocked)
			for dst := 0; dst < n; dst++ {
				want := math.Inf(1)
				if blocked == nil || !blocked[dst] {
					_, want = h.ShortestPathBlocked(src, dst, blocked)
				}
				path, got := s.ShortestPath(g, w, src, dst)
				if got != want {
					t.Fatalf("seed %d %d→%d: distance %v, heap Dijkstra %v", seed, src, dst, got, want)
				}
				if math.IsInf(got, 1) {
					if path != nil {
						t.Fatalf("seed %d %d→%d: unreachable but path %v", seed, src, dst, path)
					}
					continue
				}
				checkPath(t, g, w, path, src, dst, got)
				for _, e := range path {
					if blocked != nil && blocked[g.To(e)] {
						t.Fatalf("seed %d %d→%d: path %v enters banned node %d", seed, src, dst, path, g.To(e))
					}
				}
			}
		}
	}
}

// TestSearchMasks: an edge ban and a +Inf weight each remove exactly one
// direction, and a banned edge set matches the heap Dijkstra over the
// graph without those links.
func TestSearchMasks(t *testing.T) {
	ends := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	g := duplexOf(3, ends)
	w := []float64{1, 1, 1, 1, 5, 5}
	s := NewSearch(g)
	if p, d := s.ShortestPath(g, w, 0, 2); d != 2 || len(p) != 2 {
		t.Fatalf("unmasked 0→2: %v %v, want two hops weighing 2", p, d)
	}
	s.EdgeBan[2] = true // 1→2 only
	if p, d := s.ShortestPath(g, w, 0, 2); d != 5 || len(p) != 1 || p[0] != 4 {
		t.Fatalf("1→2 banned, 0→2: %v %v, want direct edge 4 weighing 5", p, d)
	}
	if p, d := s.ShortestPath(g, w, 2, 0); d != 2 || len(p) != 2 {
		t.Fatalf("1→2 banned, 2→0: %v %v, want the reverse direction still usable", p, d)
	}
	s.EdgeBan[2] = false
	w[4] = math.Inf(1) // 0→2 unusable
	s.NodeBan[1] = true
	if p, d := s.ShortestPath(g, w, 0, 2); p != nil || !math.IsInf(d, 1) {
		t.Fatalf("node 1 banned and 0→2 at +Inf: %v %v, want unreachable", p, d)
	}
	if p, d := s.ShortestPath(g, w, 2, 0); d != 5 || len(p) != 1 || p[0] != 5 {
		t.Fatalf("node 1 banned, 2→0: %v %v, want reverse edge 5 weighing 5", p, d)
	}
	if p, d := s.ShortestPath(g, w, 1, 1); p == nil || len(p) != 0 || d != 0 {
		t.Fatalf("src == dst: %v %v, want an empty path weighing 0", p, d)
	}

	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		n := 5 + rng.Intn(30)
		ends, w := randomLinks(rng, n)
		g := duplexOf(n, ends)
		s := NewSearch(g)
		for i := range ends {
			switch rng.Intn(6) {
			case 0:
				s.EdgeBan[2*i], s.EdgeBan[2*i+1] = true, true
			case 1:
				w[2*i], w[2*i+1] = math.Inf(1), math.Inf(1)
			}
		}
		h := heapOf(n, ends, w, s.EdgeBan)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				_, want := h.ShortestPath(src, dst)
				path, got := s.ShortestPath(g, w, src, dst)
				if got != want {
					t.Fatalf("seed %d %d→%d: masked distance %v, heap Dijkstra %v", seed, src, dst, got, want)
				}
				for _, e := range path {
					if s.EdgeBan[e] || math.IsInf(w[e], 1) {
						t.Fatalf("seed %d %d→%d: path %v uses masked edge %d", seed, src, dst, path, e)
					}
				}
			}
		}
	}
}

// TestSearchTies: an exact tie settles at the lower node index, not the
// first-relaxed one, and parallel equal links resolve to the earlier link.
func TestSearchTies(t *testing.T) {
	// 0→3 via 2 (relaxed first, links 0 and 1) or via 1 (links 2 and 3):
	// node 1 settles first, so its parent edge into 3 wins.
	g := duplexOf(4, [][2]int{{0, 2}, {2, 3}, {0, 1}, {1, 3}})
	w := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	p, d := NewSearch(g).ShortestPath(g, w, 0, 3)
	if d != 2 || len(p) != 2 || p[0] != 4 || p[1] != 6 {
		t.Fatalf("tied 0→3: %v %v, want edges [4 6] (via node 1)", p, d)
	}
	g = duplexOf(2, [][2]int{{0, 1}, {1, 0}})
	if p, _ := NewSearch(g).ShortestPath(g, []float64{1, 1, 1, 1}, 0, 1); len(p) != 1 || p[0] != 0 {
		t.Fatalf("parallel 0→1: %v, want edge 0 (the earlier link)", p)
	}
}

// BenchmarkSearch times all-pairs searches on a 200-node random graph with
// a few banned edges, the shape of TE candidate enumeration.
func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 200
	ends, w := randomLinks(rng, n)
	g := duplexOf(n, ends)
	s := NewSearch(g)
	for e := range s.EdgeBan {
		s.EdgeBan[e] = rng.Intn(20) == 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for src := 0; src < n; src += 10 {
			for dst := 0; dst < n; dst += 7 {
				s.ShortestPath(g, w, src, dst)
			}
		}
	}
}
