package te

import "sort"

// waterfill is the scale fallback when an instance is too large for the
// dense simplex: each commodity's demand is divided into cfg.WaterQuanta
// equal quanta and commodities are processed in descending-demand order
// (ties by flow ID); every quantum goes onto the candidate path whose
// bottleneck utilization after placement is smallest (ties: lower delay,
// then candidate order). Fully deterministic, O(C · quanta · K · pathlen),
// and within a quantum of the water-filling optimum on each commodity's
// candidate set.
func waterfill(g *topo, cs []*teComm, base []float64, quanta int) [][]float64 {
	load := make([]float64, len(g.edges))
	copy(load, base)
	order := sortByDemand(cs)
	fracs := make([][]float64, len(cs))
	for _, ci := range order {
		c := cs[ci]
		counts := make([]int, len(c.cands))
		q := c.demand / float64(quanta)
		for k := 0; k < quanta; k++ {
			best, bestU := -1, 0.0
			for pi, cand := range c.cands {
				u := 0.0
				for _, ei := range cand.edges {
					if v := (load[ei] + q) / g.edges[ei].capBps; v > u {
						u = v
					}
				}
				if best < 0 || u < bestU ||
					(u == bestU && cand.Delay < c.cands[best].Delay) {
					best, bestU = pi, u
				}
			}
			counts[best]++
			for _, ei := range c.cands[best].edges {
				load[ei] += q
			}
		}
		f := make([]float64, len(c.cands))
		for pi, n := range counts {
			f[pi] = float64(n) / float64(quanta)
		}
		fracs[ci] = f
	}
	return fracs
}

// sortByDemand returns commodity indices in descending demand order, ties
// broken by ascending flow ID — the deterministic processing order shared
// by the greedy fallback and the block partitioner.
func sortByDemand(cs []*teComm) []int {
	order := make([]int, len(cs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := cs[order[a]], cs[order[b]]
		if ca.demand != cb.demand {
			return ca.demand > cb.demand
		}
		return ca.flow < cb.flow
	})
	return order
}
