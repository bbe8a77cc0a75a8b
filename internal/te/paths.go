package te

import (
	"fmt"
	"math"

	"cisp/internal/graph"
	"cisp/internal/netsim"
	"cisp/internal/parallel"
)

// edge is one directed link of the TE topology.
type edge struct {
	capBps float64 // 0 = link down (excluded from path search)
	delay  float64 // propagation delay, seconds
}

// topo is the directed TE topology: a graph.Duplex (two edges per duplex
// TopoLink, edge 2i = A→B) with each edge's capacity and delay, and the
// search weight the controller keeps in step with capacity.
type topo struct {
	*graph.Duplex
	edges []edge
	w     []float64 // per edge: delay, or +Inf while the edge is down
}

// weight is an edge's path-search weight: a zero-capacity edge is
// unusable.
func (e edge) weight() float64 {
	if e.capBps <= 0 {
		return math.Inf(1)
	}
	return e.delay
}

// buildGraph converts the duplex simulation topology into the directed TE
// graph. Parallel directed edges are rejected: candidate paths are node
// sequences (that is what netsim installs), so a multigraph would be
// ambiguous — parallel capacity must be expressed through distinct nodes
// (see experiments.DesignedTETopology's fiber midpoints).
func buildGraph(n int, links []netsim.TopoLink) (*topo, error) {
	g := &topo{edges: make([]edge, 2*len(links)), w: make([]float64, 2*len(links))}
	seen := make(map[[2]int]bool, 2*len(links))
	for i, l := range links {
		for _, d := range [2][2]int{{l.A, l.B}, {l.B, l.A}} {
			a, b := d[0], d[1]
			if a < 0 || a >= n || b < 0 || b >= n {
				return nil, fmt.Errorf("te: link %d->%d outside node range [0,%d)", a, b, n)
			}
			if seen[d] {
				return nil, fmt.Errorf("te: parallel directed link %d->%d (use a transit node for parallel capacity)", a, b)
			}
			seen[d] = true
		}
		e := edge{capBps: float64(l.RateBps), delay: float64(l.PropDelay)}
		g.edges[2*i], g.edges[2*i+1] = e, e
		g.w[2*i], g.w[2*i+1] = e.weight(), e.weight()
	}
	g.Duplex = graph.NewDuplex(n, len(links), func(i int) (int, int) { return links[i].A, links[i].B })
	return g, nil
}

// Path is one candidate forwarding path of a commodity.
type Path struct {
	Nodes []int
	Delay float64 // end-to-end propagation delay, seconds
	edges []int32
}

func (g *topo) pathFromEdges(src int, eids []int32) Path {
	p := Path{Nodes: g.Nodes(src, eids), edges: eids}
	for _, e := range eids {
		p.Delay += g.edges[e].delay
	}
	return p
}

func sameEdges(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// yen enumerates up to k loopless minimum-delay paths src→dst (Yen's
// algorithm) and drops any whose delay exceeds stretch × the shortest
// path's delay — the latency-diversity cap that keeps every TE split inside
// the paper's stretch budget.
func yen(g *topo, s *graph.Search, src, dst, k int, stretch float64) []Path {
	bestE, bestD := s.ShortestPath(g.Duplex, g.w, src, dst)
	if bestE == nil {
		return nil
	}
	maxDelay := bestD * stretch
	A := []Path{g.pathFromEdges(src, bestE)}
	var B []Path
	for len(A) < k {
		prev := A[len(A)-1]
		for i := 0; i < len(prev.edges); i++ {
			spur := prev.Nodes[i]
			// Ban the i-th edge of every accepted path sharing the root
			// prefix, and every root node before the spur, then search for
			// a deviation.
			for _, p := range A {
				if len(p.edges) > i && sameEdges(p.edges[:i], prev.edges[:i]) {
					s.EdgeBan[p.edges[i]] = true
				}
			}
			for _, v := range prev.Nodes[:i] {
				s.NodeBan[v] = true
			}
			spurE, spurD := s.ShortestPath(g.Duplex, g.w, spur, dst)
			for _, p := range A {
				if len(p.edges) > i && sameEdges(p.edges[:i], prev.edges[:i]) {
					s.EdgeBan[p.edges[i]] = false
				}
			}
			for _, v := range prev.Nodes[:i] {
				s.NodeBan[v] = false
			}
			if spurE == nil {
				continue
			}
			rootD := 0.0
			for _, ei := range prev.edges[:i] {
				rootD += g.edges[ei].delay
			}
			if rootD+spurD > maxDelay {
				continue
			}
			full := make([]int32, 0, i+len(spurE))
			full = append(full, prev.edges[:i]...)
			full = append(full, spurE...)
			dup := false
			for _, p := range append(A, B...) {
				if sameEdges(p.edges, full) {
					dup = true
					break
				}
			}
			if !dup {
				B = append(B, g.pathFromEdges(src, full))
			}
		}
		if len(B) == 0 {
			break
		}
		// Pop the minimum-delay candidate (ties: fewer hops, then
		// lexicographic node order — fully deterministic).
		bi := 0
		for j := 1; j < len(B); j++ {
			if pathLess(&B[j], &B[bi]) {
				bi = j
			}
		}
		A = append(A, B[bi])
		B = append(B[:bi], B[bi+1:]...)
	}
	return A
}

func pathLess(a, b *Path) bool {
	if a.Delay != b.Delay {
		return a.Delay < b.Delay
	}
	if len(a.Nodes) != len(b.Nodes) {
		return len(a.Nodes) < len(b.Nodes)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return a.Nodes[i] < b.Nodes[i]
		}
	}
	return false
}

// enumerate finds each commodity's candidate paths, fanned out over the
// shared worker pool (one Yen run per commodity; results are positionally
// stable, so the fan-out is deterministic).
func enumerate(g *topo, comms []netsim.Commodity, cfg Config) [][]Path {
	return parallel.Map(len(comms), 1, func(i int) []Path {
		return yen(g, graph.NewSearch(g.Duplex), comms[i].Src, comms[i].Dst, cfg.K, cfg.Stretch)
	})
}

// Candidates enumerates every commodity's latency-bounded candidate paths
// over the duplex topology — the controller's internal enumeration (Yen's
// algorithm, at most cfg.K paths within cfg.Stretch × the shortest delay),
// exported so layers above the control plane (internal/resilience's
// disjoint-backup search) work from the exact same path pool a Controller
// with the same Config would split over. Results are positionally aligned
// with comms; a commodity with no path on the topology gets an empty slice.
func Candidates(n int, links []netsim.TopoLink, comms []netsim.Commodity, cfg Config) ([][]Path, error) {
	cfg = cfg.withDefaults()
	g, err := buildGraph(n, links)
	if err != nil {
		return nil, err
	}
	return enumerate(g, comms, cfg), nil
}
