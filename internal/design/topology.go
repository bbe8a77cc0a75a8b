package design

import (
	"math"
	"sync"

	"cisp/internal/obs"
	"cisp/internal/parallel"
)

// Grain sizes for the pool: a parallel region only fans out goroutines when
// its index range exceeds the grain, so small instances (the exact solvers'
// regime, where AddLink and objective sit inside a branch-and-bound loop)
// keep running inline with zero scheduling overhead. Per-index work in the
// APSP update and the stretch reductions is O(n), so the grain is a row
// count; candidate gains are O(n²) each, so there the grain is 1.
const (
	apsGrain     = 64 // sources per updateAPSP / rows per objective reduction
	gainGrain    = 1  // candidate pairs per gain evaluation
	closureGrain = 16 // Dijkstra sources per fiberClosure fan-out
)

// slackRel scales Topology.slack. Rounding in the float APSP matrix breaks
// the triangle inequality by a few ulps per hop, around 1e-16 relative;
// 1e-9 leaves orders of magnitude of headroom while gainOf still skips
// most source rows.
const slackRel = 1e-9

// Link is one built microwave city-city link.
type Link struct {
	I, J int
	Dist float64 // latency-equivalent meters (m_ij)
	Cost float64 // towers (c_ij)
}

// Topology is a (partial) design: the set of built microwave links over the
// always-available fiber substrate, with the hybrid all-pairs shortest
// latency-distance matrix maintained incrementally.
type Topology struct {
	P     *Problem
	Built []Link

	d      [][]float64 // hybrid latency-equivalent APSP
	fiberD [][]float64 // fiber-only metric closure (for pruning/baselines)
	cost   float64

	// slack is gainOf's rounding margin for the triangle inequality:
	// slackRel × the largest finite fiber-closure distance.
	slack float64

	// built holds the normalized (i<j) pairs of Built for O(1) HasLink.
	// It is materialized from Built on the first query (sync.Once, so
	// concurrent first reads are safe) rather than maintained eagerly:
	// the exact solvers clone topologies once per branch-and-bound node
	// and never call HasLink, so they must not pay for map copies.
	builtOnce sync.Once
	built     map[[2]int]struct{}
}

// NewTopology returns the fiber-only topology for p (no microwave links).
func NewTopology(p *Problem) *Topology {
	fd := p.fiberClosure()
	d := make([][]float64, p.N)
	maxD := 0.0
	for i := range d {
		d[i] = make([]float64, p.N)
		copy(d[i], fd[i])
		for _, v := range fd[i] {
			if v > maxD && !math.IsInf(v, 1) {
				maxD = v
			}
		}
	}
	return &Topology{P: p, d: d, fiberD: fd, slack: slackRel * maxD}
}

// Clone returns an independent copy of the topology.
func (t *Topology) Clone() *Topology {
	c := &Topology{P: t.P, fiberD: t.fiberD, cost: t.cost, slack: t.slack}
	c.Built = append([]Link(nil), t.Built...)
	c.d = make([][]float64, len(t.d))
	for i := range t.d {
		c.d[i] = append([]float64(nil), t.d[i]...)
	}
	return c
}

// normPair returns the (min,max) normalization of a link key.
func normPair(i, j int) [2]int {
	if i > j {
		i, j = j, i
	}
	return [2]int{i, j}
}

// AddLink builds the microwave link (i,j) and updates the APSP matrix in
// O(n²) using the single-edge-insertion identity.
func (t *Topology) AddLink(i, j int) {
	w := t.P.MW[i][j]
	t.Built = append(t.Built, Link{I: i, J: j, Dist: w, Cost: t.P.MWCost[i][j]})
	if t.built != nil {
		t.built[normPair(i, j)] = struct{}{}
	}
	t.cost += t.P.MWCost[i][j]
	obs.Active().Counter("cisp_design_apsp_updates_total").Inc()
	updateAPSP(t.d, i, j, w)
}

// updateAPSP relaxes all pairs through a new edge (i,j) of weight w.
//
// At greedy scale (n > apsGrain) the endpoint rows are snapshotted first,
// so every source relaxes against the pre-insertion distances: the
// single-edge-insertion identity needs nothing newer (a shortest path uses
// the new edge at most once), and it makes the per-source relaxations
// order-independent — the pool fans them out with results bit-identical at
// every worker count. Small instances (the exact solvers' regime, where
// AddLink sits inside a branch-and-bound loop) keep the allocation-free
// in-place scan; the gate depends only on n, never on the worker count.
func updateAPSP(d [][]float64, i, j int, w float64) {
	n := len(d)
	if n <= apsGrain {
		for s := 0; s < n; s++ {
			relaxRow(d[s], d[i], d[j], i, j, w, n)
		}
		return
	}
	di := append([]float64(nil), d[i]...)
	dj := append([]float64(nil), d[j]...)
	parallel.For(n, apsGrain, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			relaxRow(d[s], di, dj, i, j, w, n)
		}
	})
}

// relaxRow relaxes one source row through the new edge (i,j): ds[u] =
// min(ds[u], ds[i]+w+dj[u], ds[j]+w+di[u]), where di/dj are the edge
// endpoints' distance rows.
func relaxRow(ds, di, dj []float64, i, j int, w float64, n int) {
	dsi, dsj := ds[i], ds[j]
	if math.IsInf(dsi, 1) && math.IsInf(dsj, 1) {
		return
	}
	for u := 0; u < n; u++ {
		via1 := dsi + w + dj[u]
		via2 := dsj + w + di[u]
		if via1 < ds[u] {
			ds[u] = via1
		}
		if via2 < ds[u] {
			ds[u] = via2
		}
	}
}

// CostUsed returns the total towers consumed by built links.
func (t *Topology) CostUsed() float64 { return t.cost }

// Dist returns the current hybrid latency-equivalent distance between sites.
func (t *Topology) Dist(i, j int) float64 { return t.d[i][j] }

// FiberDist returns the fiber-only latency-equivalent distance.
func (t *Topology) FiberDist(i, j int) float64 { return t.fiberD[i][j] }

// stretchSum is a partial traffic-weighted stretch accumulation.
type stretchSum struct{ num, den float64 }

// stretchOver reduces Σ h_st·d[s][u]/geo_su (and Σ h_st) over all s<u pairs
// of the given distance matrix. At greedy scale the row sums fan out on the
// pool; the chunk-ordered merge keeps the float result independent of the
// worker count. Small instances (objective() runs per branch-and-bound
// node) take the plain accumulation — the gate depends only on n.
func (p *Problem) stretchOver(d [][]float64) stretchSum {
	if p.N <= apsGrain {
		var acc stretchSum
		for s := 0; s < p.N; s++ {
			acc = acc.addRow(p, d, s)
		}
		return acc
	}
	return parallel.Reduce(p.N, apsGrain, func(lo, hi int) stretchSum {
		var acc stretchSum
		for s := lo; s < hi; s++ {
			acc = acc.addRow(p, d, s)
		}
		return acc
	}, func(a, b stretchSum) stretchSum {
		return stretchSum{a.num + b.num, a.den + b.den}
	})
}

// addRow accumulates source row s of the stretch sum.
func (acc stretchSum) addRow(p *Problem, d [][]float64, s int) stretchSum {
	for u := s + 1; u < p.N; u++ {
		h := p.Traffic[s][u]
		if h == 0 {
			continue
		}
		acc.num += h * d[s][u] / p.Geodesic[s][u]
		acc.den += h
	}
	return acc
}

// MeanStretch returns the traffic-weighted mean stretch,
// Σ h_st · (D_st/d_st) / Σ h_st — the paper's objective normalised per unit
// traffic. Pairs with zero traffic are ignored.
func (t *Topology) MeanStretch() float64 {
	s := t.P.stretchOver(t.d)
	if s.den == 0 {
		return math.NaN()
	}
	return s.num / s.den
}

// objective is the un-normalised Σ h_st·D_st/d_st (what the solvers
// minimise; same argmin as MeanStretch).
func (t *Topology) objective() float64 {
	return t.P.stretchOver(t.d).num
}

// gainOf returns the objective decrease from adding link (i,j) to the
// current topology, in O(n²) at worst, without mutating state.
//
// A source row s is skipped outright when ds[i]+w ≥ ds[j]+slack and
// ds[j]+w ≥ ds[i]+slack: the triangle inequality then gives
// ds[i]+w+dj[u] ≥ ds[j]+dj[u] ≥ ds[u] for every u, and symmetrically
// through i, so no pair in the row can improve. The slack covers the
// rounding by which the float APSP matrix breaks the triangle inequality;
// with it the skip is exact and the gain is bit-identical to the full scan
// (TestGainOfMatchesReference). The scanned rows keep that scan's sum
// order: (ds[i]+w)+dj[u] left to right, pairs in increasing u.
func (t *Topology) gainOf(i, j int) float64 {
	p := t.P
	n := p.N
	w := p.MW[i][j]
	d := t.d
	di, dj := d[i][:n], d[j][:n]
	gain := 0.0
	for s := 0; s < n; s++ {
		ds := d[s][:n]
		dsi, dsj := ds[i], ds[j]
		viaI, viaJ := dsi+w, dsj+w // s→i→j and s→j→i, before the tail
		if viaI >= dsj+t.slack && viaJ >= dsi+t.slack {
			continue
		}
		hs, gs := p.Traffic[s][:n], p.Geodesic[s][:n]
		for u := s + 1; u < n; u++ {
			h := hs[u]
			if h == 0 {
				continue
			}
			alt := viaI + dj[u]
			if b := viaJ + di[u]; b < alt {
				alt = b
			}
			if cur := ds[u]; alt < cur {
				gain += h * (cur - alt) / gs[u]
			}
		}
	}
	return gain
}

// HasLink reports whether the (i,j) microwave link is built. O(1) after
// the first call: backed by a set keyed on the normalized pair, built once
// from Built (concurrent first calls are safe; like every other accessor,
// HasLink must not race with AddLink).
func (t *Topology) HasLink(i, j int) bool {
	t.builtOnce.Do(func() {
		m := make(map[[2]int]struct{}, len(t.Built))
		for _, l := range t.Built {
			m[normPair(l.I, l.J)] = struct{}{}
		}
		t.built = m
	})
	_, ok := t.built[normPair(i, j)]
	return ok
}

// MeanFiberStretch returns the traffic-weighted mean stretch of the
// fiber-only baseline (no MW links) — the paper's ~1.93× reference.
func (t *Topology) MeanFiberStretch() float64 {
	s := t.P.stretchOver(t.fiberD)
	if s.den == 0 {
		return math.NaN()
	}
	return s.num / s.den
}
