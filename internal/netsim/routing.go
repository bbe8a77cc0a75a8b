package netsim

import (
	"fmt"
	"math"
	"sort"

	"cisp/internal/graph"
	"cisp/internal/units"
)

// TopoLink describes one duplex link of a simulation topology.
type TopoLink struct {
	A, B      int
	RateBps   units.BitsPerSecond
	PropDelay units.Seconds
	QueueCap  int
}

// Commodity is one routed demand.
type Commodity struct {
	Flow     int
	Src, Dst int
	Demand   units.BitsPerSecond // used by utilization-aware schemes

	// Count is how many concurrent flows the Scenario driver runs on this
	// commodity's path (0 and 1 both mean one). Routing ignores it.
	Count int

	// FlowBytes overrides Scenario.FlowBytes for this commodity's flows
	// when > 0 — how a workload mixes thin gaming flows with bulk media
	// transfers in one replay. Both engines honor it identically.
	FlowBytes int
}

// Scheme selects a routing algorithm, mirroring §5: ns-3's default shortest
// path, minimise-max-link-utilization (common ISP traffic engineering), and
// throughput-optimal (widest-path) routing.
type Scheme int

// Routing schemes.
const (
	ShortestPath Scheme = iota
	MinMaxUtilization
	ThroughputOptimal
)

func (s Scheme) String() string {
	switch s {
	case ShortestPath:
		return "shortest-path"
	case MinMaxUtilization:
		return "min-max-utilization"
	case ThroughputOptimal:
		return "throughput-optimal"
	}
	return "unknown"
}

// BuildTopology adds every duplex link to the network.
func BuildTopology(nw *Network, links []TopoLink) {
	for _, l := range links {
		nw.AddDuplex(l.A, l.B, float64(l.RateBps), float64(l.PropDelay), l.QueueCap)
	}
}

// SplitSumTol is the tolerance ValidateSplits allows on each commodity's
// fraction sum: TE solutions drop sub-1e-6 fractions path by path, so a
// K-way split can drift a few parts per million from exactly 1.
const SplitSumTol = 1e-5

// ValidateSplits checks a split set against the topology before it is
// installed or published: every listed commodity must exist, each of its
// paths must run Src→Dst over topology links (either direction of a duplex
// TopoLink), every fraction must be positive and finite, and the fractions
// must sum to 1 within SplitSumTol. This is the wire-format gate the
// control-plane daemon runs before swapping a snapshot in, and the same
// contract Scenario.Run assumes of its Splits field.
func ValidateSplits(n int, links []TopoLink, comms []Commodity, splits map[int][]SplitPath) error {
	have := make(map[[2]int]bool, 2*len(links))
	for _, l := range links {
		have[[2]int{l.A, l.B}] = true
		have[[2]int{l.B, l.A}] = true
	}
	byFlow := make(map[int]Commodity, len(comms))
	for _, c := range comms {
		byFlow[c.Flow] = c
	}
	flows := make([]int, 0, len(splits))
	for flow := range splits {
		flows = append(flows, flow)
	}
	sort.Ints(flows)
	for _, flow := range flows {
		c, ok := byFlow[flow]
		if !ok {
			return fmt.Errorf("netsim: splits for unknown commodity %d", flow)
		}
		sps := splits[flow]
		if len(sps) == 0 {
			return fmt.Errorf("netsim: commodity %d has an empty split set", flow)
		}
		sum := 0.0
		for _, sp := range sps {
			if !(sp.Frac > 0) || math.IsInf(sp.Frac, 0) {
				return fmt.Errorf("netsim: commodity %d has non-positive or non-finite fraction %v", flow, sp.Frac)
			}
			sum += sp.Frac
			if len(sp.Path) < 2 {
				return fmt.Errorf("netsim: commodity %d has a degenerate path %v", flow, sp.Path)
			}
			if sp.Path[0] != c.Src || sp.Path[len(sp.Path)-1] != c.Dst {
				return fmt.Errorf("netsim: commodity %d path %v does not run %d→%d", flow, sp.Path, c.Src, c.Dst)
			}
			for i := 0; i+1 < len(sp.Path); i++ {
				a, b := sp.Path[i], sp.Path[i+1]
				if a < 0 || a >= n || b < 0 || b >= n {
					return fmt.Errorf("netsim: commodity %d path hop %d→%d outside node range [0,%d)", flow, a, b, n)
				}
				if !have[[2]int{a, b}] {
					return fmt.Errorf("netsim: commodity %d path hop %d→%d is not a topology link", flow, a, b)
				}
			}
		}
		if math.Abs(sum-1) > SplitSumTol {
			return fmt.Errorf("netsim: commodity %d fractions sum to %.9f, want 1±%g", flow, sum, SplitSumTol)
		}
	}
	return nil
}

// InstallRoutes computes a path per commodity under the scheme and installs
// forwarding state. It returns the chosen paths keyed by flow ID.
// Commodities are processed in decreasing demand for the utilization-aware
// schemes, which route sequentially against the residual network.
func InstallRoutes(nw *Network, links []TopoLink, comms []Commodity, scheme Scheme) map[int][]int {
	paths := ComputeRoutes(nw.N(), links, comms, scheme)
	for flow, path := range paths {
		nw.SetFlowPath(flow, path)
	}
	return paths
}

// DelayGraph returns the topology as a graph.Duplex (link i is edges 2i
// and 2i+1) with each directed edge's propagation delay in seconds — the
// weight of every latency-shortest-path search over it. Link ends must lie
// in [0, n).
func DelayGraph(n int, links []TopoLink) (*graph.Duplex, []float64) {
	g := graph.NewDuplex(n, len(links), func(i int) (int, int) { return links[i].A, links[i].B })
	delay := make([]float64, g.Edges())
	for i, l := range links {
		delay[2*i], delay[2*i+1] = float64(l.PropDelay), float64(l.PropDelay)
	}
	return g, delay
}

// ComputeRoutes is the pure routing core behind InstallRoutes: it computes
// a path per commodity under the scheme without touching a Network, so the
// packet and fluid engines can share identical paths. The returned map is
// keyed by flow ID; unroutable commodities are omitted.
func ComputeRoutes(n int, links []TopoLink, comms []Commodity, scheme Scheme) map[int][]int {
	g, delay := DelayGraph(n, links)
	capOf := func(e int32) float64 { return float64(links[e/2].RateBps) }
	load := make([]float64, g.Edges()) // per directed edge
	search := graph.NewSearch(g)

	order := make([]Commodity, len(comms))
	copy(order, comms)
	if scheme != ShortestPath {
		sort.Slice(order, func(i, j int) bool { return order[i].Demand > order[j].Demand })
	}

	paths := make(map[int][]int, len(comms))
	for _, c := range order {
		var edges []int32
		switch scheme {
		case ShortestPath:
			edges, _ = search.ShortestPath(g, delay, c.Src, c.Dst)
		case MinMaxUtilization:
			edges = minimaxPath(g, delay, c.Src, c.Dst, func(e int32) float64 {
				return (load[e] + float64(c.Demand)) / capOf(e)
			})
		case ThroughputOptimal:
			edges = minimaxPath(g, delay, c.Src, c.Dst, func(e int32) float64 {
				// Maximise residual capacity == minimise its negation.
				return -(capOf(e) - load[e] - float64(c.Demand))
			})
		}
		if edges == nil {
			continue
		}
		path := g.Nodes(c.Src, edges)
		paths[c.Flow] = path
		// Account the demand on each hop's first matching directed edge;
		// with parallel links that need not be the edge the search took.
		for i := 0; i+1 < len(path); i++ {
			for _, e := range g.Out(path[i]) {
				if g.To(e) == path[i+1] {
					load[e] += float64(c.Demand)
					break
				}
			}
		}
	}
	return paths
}

// minimaxPath finds the edge path minimising the maximum of cost(e) over
// its edges, breaking ties by total propagation delay; nil if dst is
// unreachable.
func minimaxPath(g *graph.Duplex, delay []float64, src, dst int, cost func(e int32) float64) []int32 {
	n := g.N()
	bottleneck := make([]float64, n)
	dist := make([]float64, n)
	prev := make([]int32, n)
	done := make([]bool, n)
	for i := range bottleneck {
		bottleneck[i] = math.Inf(1)
		dist[i] = math.Inf(1)
	}
	bottleneck[src] = math.Inf(-1)
	dist[src] = 0
	for {
		u := -1
		bb, bd := math.Inf(1), math.Inf(1)
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			if bottleneck[v] < bb || (bottleneck[v] == bb && dist[v] < bd) {
				u, bb, bd = v, bottleneck[v], dist[v]
			}
		}
		if u < 0 || math.IsInf(bottleneck[u], 1) || u == dst {
			break
		}
		done[u] = true
		for _, e := range g.Out(u) {
			v := g.To(e)
			nb := math.Max(bottleneck[u], cost(e))
			ndel := dist[u] + delay[e]
			if nb < bottleneck[v] || (nb == bottleneck[v] && ndel < dist[v]) {
				bottleneck[v] = nb
				dist[v] = ndel
				prev[v] = e
			}
		}
	}
	if math.IsInf(bottleneck[dst], 1) {
		return nil
	}
	return g.TracePath(prev, src, dst)
}
