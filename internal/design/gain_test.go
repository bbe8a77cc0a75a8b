package design

import (
	"math"
	"math/rand"
	"testing"
)

// gainOfRef is the plain full scan gainOf replaced: every source row, every
// pair, math.Min over the two ways through the link. It is the oracle the
// row-pruned scan must match bit for bit.
func (t *Topology) gainOfRef(i, j int) float64 {
	p := t.P
	w := p.MW[i][j]
	gain := 0.0
	d := t.d
	for s := 0; s < p.N; s++ {
		dsi, dsj := d[s][i], d[s][j]
		for u := s + 1; u < p.N; u++ {
			h := p.Traffic[s][u]
			if h == 0 {
				continue
			}
			cur := d[s][u]
			alt := math.Min(dsi+w+d[j][u], dsj+w+d[i][u])
			if alt < cur {
				gain += h * (cur - alt) / p.Geodesic[s][u]
			}
		}
	}
	return gain
}

// mwPairs lists the pairs with a feasible microwave link, i<j.
func mwPairs(p *Problem) [][2]int {
	var out [][2]int
	for i := 0; i < p.N; i++ {
		for j := i + 1; j < p.N; j++ {
			if !math.IsInf(p.MW[i][j], 1) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// roundProblem rounds every distance of p to whole meters. Sums of whole
// meters are exact in float64, so the APSP matrix obeys the triangle
// inequality exactly and ties ds[i]+w == ds[j] are common.
func roundProblem(p *Problem) {
	for _, m := range [][][]float64{p.MW, p.FiberLat} {
		for _, row := range m {
			for k, v := range row {
				row[k] = math.Round(v)
			}
		}
	}
}

// isolateFiber cuts site k off the fiber substrate, so its fiber-closure
// row is +Inf until a microwave link reaches it.
func isolateFiber(p *Problem, k int) {
	for u := 0; u < p.N; u++ {
		if u != k {
			p.FiberLat[k][u], p.FiberLat[u][k] = math.Inf(1), math.Inf(1)
		}
	}
}

// TestGainOfMatchesReference: after every step of random AddLink sequences,
// the row-pruned gainOf equals the full-scan reference bitwise on every
// useful pair. n=100 exceeds apsGrain, so the links go through the
// snapshot-and-fan-out APSP update as they do in the plan. The variants add
// whole-meter distances (exact ties ds[i]+w == ds[j]) and a site cut off
// from fiber (+Inf rows until a microwave link reaches it); built pairs stay
// in the checked set, and re-evaluating a built link ties on every row
// whose shortest path to j runs over it.
func TestGainOfMatchesReference(t *testing.T) {
	type variant struct {
		name          string
		round, island bool
	}
	variants := []variant{{"plain", false, false}, {"whole-meter", true, false}, {"fiber-island", false, true}}
	for _, n := range []int{20, 100} {
		steps, seeds := 12, int64(3)
		if n > apsGrain {
			steps, seeds = 4, 1
		}
		for seed := int64(1); seed <= seeds; seed++ {
			for _, v := range variants {
				p := randomProblem(seed, n, 1e9)
				if v.round {
					roundProblem(p)
				}
				if v.island {
					isolateFiber(p, 0)
				}
				top := NewTopology(p)
				var pairs [][2]int
				for _, ij := range mwPairs(p) {
					if p.usefulLink(ij[0], ij[1], top.fiberD) {
						pairs = append(pairs, ij)
					}
				}
				rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
				ties, infRows, checked := 0, 0, 0
				for step := 0; ; step++ {
					for _, ij := range pairs {
						i, j := ij[0], ij[1]
						got, want := top.gainOf(i, j), top.gainOfRef(i, j)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("n=%d seed %d %s step %d: gainOf(%d,%d) = %v, reference %v",
								n, seed, v.name, step, i, j, got, want)
						}
						checked++
						w := p.MW[i][j]
						for s := 0; s < n; s++ {
							if top.d[s][i]+w == top.d[s][j] || top.d[s][j]+w == top.d[s][i] {
								ties++
							}
						}
					}
					for s := 0; s < n; s++ {
						if math.IsInf(top.d[s][(s+1)%n], 1) {
							infRows++
						}
					}
					if step == steps {
						break
					}
					// Half the links come from the island when there is
					// one, so it joins the hybrid graph partway through.
					ij := pairs[rng.Intn(len(pairs))]
					if v.island && step%2 == 0 {
						if k := rng.Intn(n-1) + 1; !math.IsInf(p.MW[0][k], 1) {
							ij = [2]int{0, k}
						}
					}
					top.AddLink(ij[0], ij[1])
				}
				if checked == 0 {
					t.Fatalf("n=%d seed %d %s: no useful pairs", n, seed, v.name)
				}
				if v.round && ties == 0 {
					t.Errorf("n=%d seed %d %s: no exact tie ds[i]+w == ds[j] exercised", n, seed, v.name)
				}
				if v.island && infRows == 0 {
					t.Errorf("n=%d seed %d %s: no +Inf row exercised", n, seed, v.name)
				}
			}
		}
	}
}

// BenchmarkGainScan times one gainOf pass over every useful pair of a
// 100-site instance with three dozen links built — the unit of work of one
// greedy refreshAll (DESIGN.md §4).
func BenchmarkGainScan(b *testing.B) {
	p := randomProblem(1, 100, 1e9)
	top := NewTopology(p)
	var pairs [][2]int
	for _, ij := range mwPairs(p) {
		if p.usefulLink(ij[0], ij[1], top.fiberD) {
			pairs = append(pairs, ij)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 36; k++ {
		ij := pairs[rng.Intn(len(pairs))]
		top.AddLink(ij[0], ij[1])
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, ij := range pairs {
			top.gainOf(ij[0], ij[1])
		}
	}
}
