package graph

import (
	"fmt"
	"math"
)

// Duplex is a directed graph in compressed-row form, built from duplex
// links: link i becomes edge 2i (A→B) and edge 2i+1 (B→A), so an edge's
// reverse is its ID xor 1. Each node's out-edges are listed in link order.
// It is the graph the latency-routing layers above the tower graph share
// (TE candidates, the §5 routing schemes, fast-reroute rescue), searched
// with a Search. Weights live outside the graph, one per edge ID, so each
// caller keeps its own (delay, delay masked by capacity, ...).
type Duplex struct {
	head  []int32 // per edge, the node it enters
	start []int32 // node u's out-edges are out[start[u]:start[u+1]]
	out   []int32
}

// NewDuplex builds the graph of n nodes over m duplex links whose ends
// ends(i) returns. An end outside [0, n) panics: callers validate their
// link lists first.
func NewDuplex(n, m int, ends func(i int) (a, b int)) *Duplex {
	g := &Duplex{head: make([]int32, 2*m), start: make([]int32, n+1), out: make([]int32, 2*m)}
	for i := 0; i < m; i++ {
		a, b := ends(i)
		if a < 0 || a >= n || b < 0 || b >= n {
			panic(fmt.Sprintf("graph: duplex link %d (%d,%d) out of range n=%d", i, a, b, n))
		}
		g.head[2*i], g.head[2*i+1] = int32(b), int32(a)
		g.start[a+1]++
		g.start[b+1]++
	}
	for u := 0; u < n; u++ {
		g.start[u+1] += g.start[u]
	}
	fill := append([]int32(nil), g.start[:n]...)
	for e := range g.head {
		u := g.head[e^1]
		g.out[fill[u]] = int32(e)
		fill[u]++
	}
	return g
}

// N returns the number of nodes.
func (g *Duplex) N() int { return len(g.start) - 1 }

// Edges returns the number of directed edges, twice the link count.
func (g *Duplex) Edges() int { return len(g.head) }

// From returns the node edge e leaves.
func (g *Duplex) From(e int32) int { return int(g.head[e^1]) }

// To returns the node edge e enters.
func (g *Duplex) To(e int32) int { return int(g.head[e]) }

// Out returns u's out-edge IDs in link order. The slice is shared with the
// graph and must not be modified.
func (g *Duplex) Out(u int) []int32 { return g.out[g.start[u]:g.start[u+1]] }

// Search is the caller-owned scratch of ShortestPath over one Duplex. Set
// EdgeBan and NodeBan between searches to mask edges and nodes; a search
// leaves both as it found them. A Search is not safe for concurrent use.
type Search struct {
	EdgeBan []bool // per edge ID: the edge may not be used
	NodeBan []bool // per node: the node may not be entered (nor searched from)

	dist []float64
	prev []int32 // per node, the edge it was last reached by
	done []bool
}

// NewSearch returns a scratch sized for g, with nothing banned.
func NewSearch(g *Duplex) *Search {
	n := g.N()
	return &Search{
		EdgeBan: make([]bool, g.Edges()),
		NodeBan: make([]bool, n),
		dist:    make([]float64, n),
		prev:    make([]int32, n),
		done:    make([]bool, n),
	}
}

// ShortestPath returns the minimum-weight src→dst path as edge IDs in path
// order, with its weight; nil and +Inf when dst is unreachable, an empty
// path and 0 when src == dst. w[e] is edge e's non-negative weight and
// +Inf marks an edge as unusable. The search is the O(n²) scan-select
// Dijkstra: it settles the lowest-index node among equal distances, relaxes
// out-edges in link order and moves a node's parent only on a strictly
// shorter distance, so among equal-weight paths the one it returns is a
// pure function of node and link order. It stops once dst is settled.
//
//cisp:hotpath
func (s *Search) ShortestPath(g *Duplex, w []float64, src, dst int) ([]int32, float64) {
	inf := math.Inf(1)
	for v := range s.dist {
		s.dist[v] = inf
		s.done[v] = s.NodeBan[v]
	}
	s.dist[src] = 0
	for {
		u, best := -1, inf
		for v, d := range s.dist {
			if d < best && !s.done[v] {
				u, best = v, d
			}
		}
		if u < 0 || u == dst {
			break
		}
		s.done[u] = true
		for _, e := range g.out[g.start[u]:g.start[u+1]] {
			v := g.head[e]
			if s.done[v] || s.EdgeBan[e] {
				continue
			}
			if nd := best + w[e]; nd < s.dist[v] {
				s.dist[v] = nd
				s.prev[v] = e
			}
		}
	}
	if s.dist[dst] == inf {
		return nil, inf
	}
	return g.TracePath(s.prev, src, dst), s.dist[dst]
}

// TracePath returns the src→dst edge path a search recorded in prev (per
// node, the edge it was last reached by), walking back from dst; an empty
// path when src == dst. dst must have been reached.
func (g *Duplex) TracePath(prev []int32, src, dst int) []int32 {
	hops := 0
	for v := dst; v != src; v = g.From(prev[v]) {
		hops++
	}
	path := make([]int32, hops)
	for v := dst; v != src; v = g.From(prev[v]) {
		hops--
		path[hops] = prev[v]
	}
	return path
}

// Nodes returns the node sequence of an edge path from src, src first.
func (g *Duplex) Nodes(src int, path []int32) []int {
	nodes := make([]int, 1, len(path)+1)
	nodes[0] = src
	for _, e := range path {
		nodes = append(nodes, g.To(e))
	}
	return nodes
}
