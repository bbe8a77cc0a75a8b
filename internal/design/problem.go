// Package design implements the paper's core contribution: the Step-2
// topology-design optimization (§3.2). Given per-pair microwave link
// distances and costs (from Step 1), fiber latency distances, a traffic
// matrix and a tower budget, it chooses which city-city microwave links to
// build so as to minimise mean latency stretch per unit traffic.
//
// Four solvers are provided, mirroring the paper's comparison:
//
//   - Greedy: the fast marginal-gain heuristic (lazy evaluation makes it
//     polynomial and fast at 120-city scale).
//   - GreedyILP: the paper's "cISP" method — greedy candidate pruning at an
//     inflated 2× budget, followed by an exact optimization restricted to
//     those candidates (§3.2 "Solution approach").
//   - Exact: branch & bound over link subsets; equivalent to the flow ILP
//     because without capacity coupling each commodity independently takes
//     its shortest built path. Used as the optimality reference (Fig 2b).
//   - FlowILP / LPRounding: the literal Eq. 1 network-flow ILP (with the
//     paper's structure-exploiting variable pruning) solved by the in-repo
//     branch & bound, and the naive LP-relaxation + rounding baseline the
//     paper reports as neither scalable nor optimal.
package design

import (
	"fmt"
	"math"

	"cisp/internal/graph"
	"cisp/internal/parallel"
)

// Problem is a Step-2 instance over n sites. All matrices are n×n and
// symmetric; distances are latency-equivalent meters (fiber already carries
// its 1.5× penalty). MW[i][j] is +Inf where no microwave link is feasible.
type Problem struct {
	N        int
	Traffic  [][]float64 // h_st ≥ 0; only s<t entries are read
	Geodesic [][]float64 // d_st > 0 for s != t
	MW       [][]float64 // m_ij, latency-equivalent meters (+Inf: infeasible)
	MWCost   [][]float64 // c_ij, towers needed to build the i-j link
	FiberLat [][]float64 // o_ij × 1.5, latency-equivalent meters
	Budget   float64     // maximum total towers across built links
}

// Validate checks matrix shapes and symmetry; returns a descriptive error.
func (p *Problem) Validate() error {
	if p.N <= 1 {
		return fmt.Errorf("design: need at least 2 sites, have %d", p.N)
	}
	for name, m := range map[string][][]float64{
		"Traffic": p.Traffic, "Geodesic": p.Geodesic, "MW": p.MW,
		"MWCost": p.MWCost, "FiberLat": p.FiberLat,
	} {
		if len(m) != p.N {
			return fmt.Errorf("design: %s has %d rows, want %d", name, len(m), p.N)
		}
		for i := range m {
			if len(m[i]) != p.N {
				return fmt.Errorf("design: %s row %d has %d cols, want %d", name, i, len(m[i]), p.N)
			}
		}
	}
	for i := 0; i < p.N; i++ {
		for j := i + 1; j < p.N; j++ {
			if p.Geodesic[i][j] <= 0 {
				return fmt.Errorf("design: non-positive geodesic distance between %d and %d", i, j)
			}
			if p.Traffic[i][j] < 0 {
				return fmt.Errorf("design: negative traffic between %d and %d", i, j)
			}
			for name, m := range map[string][][]float64{
				"Traffic": p.Traffic, "Geodesic": p.Geodesic, "MW": p.MW,
				"MWCost": p.MWCost, "FiberLat": p.FiberLat,
			} {
				if m[i][j] != m[j][i] {
					return fmt.Errorf("design: %s asymmetric at (%d,%d)", name, i, j)
				}
			}
		}
	}
	if p.Budget < 0 {
		return fmt.Errorf("design: negative budget %v", p.Budget)
	}
	return nil
}

// totalTraffic returns Σ_{s<t} h_st.
func (p *Problem) totalTraffic() float64 {
	sum := 0.0
	for s := 0; s < p.N; s++ {
		for t := s + 1; t < p.N; t++ {
			sum += p.Traffic[s][t]
		}
	}
	return sum
}

// fiberClosure returns the metric closure of FiberLat, so downstream code
// can treat fiber distances as shortest fiber paths even if the caller
// supplied raw per-pair conduit lengths. The closure is a per-source
// shortest-path fan-out via internal/graph — FiberLat is a complete
// matrix, so the dense O(n²)-per-source Dijkstra matches Floyd-Warshall's
// total cost while each source owns one output row, letting the sources
// parallelize on the pool with results independent of the worker count.
// The lower triangle mirrors the upper one: float sums along reversed
// paths can round differently, and the rest of the solver assumes exact
// symmetry.
func (p *Problem) fiberClosure() [][]float64 {
	n := p.N
	d := make([][]float64, n)
	parallel.For(n, closureGrain, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			d[s] = graph.DenseSourceShortest(p.FiberLat, s)
		}
	})
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d[j][i] = d[i][j]
		}
	}
	return d
}

// floydWarshall closes d in place into its all-pairs shortest-path matrix,
// O(n³). buildFlowLP's pruning metric is its production caller; the tests
// use it as the from-scratch APSP oracle.
func floydWarshall(d [][]float64) {
	n := len(d)
	for k := 0; k < n; k++ {
		dk := d[k]
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			di := d[i]
			for j := 0; j < n; j++ {
				if nd := dik + dk[j]; nd < di[j] {
					di[j] = nd
				}
			}
		}
	}
}

// usefulLink reports whether the microwave link (i,j) could ever appear on a
// shortest path: it must exist, fit the budget alone, and beat the direct
// fiber distance between its endpoints.
func (p *Problem) usefulLink(i, j int, fiberD [][]float64) bool {
	return !math.IsInf(p.MW[i][j], 1) &&
		p.MWCost[i][j] > 0 &&
		p.MWCost[i][j] <= p.Budget &&
		p.MW[i][j] < fiberD[i][j]
}
