package netsim

import (
	"math"
	"testing"
)

func TestPercentileIntsMatchesFloat(t *testing.T) {
	ints := []int{9, 1, 5, 3, 7}
	floats := []float64{9, 1, 5, 3, 7}
	for _, p := range []float64{0, 25, 50, 75, 90, 100} {
		a, b := PercentileInts(ints, p), Percentile(floats, p)
		if a != b {
			t.Fatalf("p%.0f: PercentileInts=%v Percentile=%v — the two paths diverged", p, a, b)
		}
	}
	if got := PercentileInts(ints, 50); got != 5 {
		t.Fatalf("median = %v, want 5", got)
	}
	if !math.IsNaN(PercentileInts(nil, 50)) {
		t.Fatal("empty int percentile should be NaN")
	}
	// Input must not be reordered.
	if ints[0] != 9 || ints[4] != 7 {
		t.Fatalf("input mutated: %v", ints)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	vals := []float64{10, 20}
	if got := Percentile(vals, 50); got != 15 {
		t.Fatalf("p50 of {10,20} = %v, want 15 (linear interpolation)", got)
	}
	if got := PercentileInts([]int{10, 20}, 25); got != 12.5 {
		t.Fatalf("p25 of {10,20} = %v, want 12.5", got)
	}
}

// TestPercentileEdges: empty input, a single sample, the extremes and the
// median, odd and even lengths — the cases the weather year analysis relies
// on for its per-pair p99 and its median summaries.
func TestPercentileEdges(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("percentile of empty should be NaN")
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if v := Percentile([]float64{42}, p); v != 42 {
			t.Fatalf("p%v of single sample = %v, want 42", p, v)
		}
	}
	s := []float64{1, 2, 3, 4, 5}
	if v := Percentile(s, 0); v != 1 {
		t.Fatalf("p0 should be the minimum, got %v", v)
	}
	if v := Percentile(s, 100); v != 5 {
		t.Fatalf("p100 should be the maximum, got %v", v)
	}
	if v := Percentile(s, 50); v != 3 {
		t.Fatalf("p50 = %v, want 3", v)
	}
	if m := Percentile([]float64{3, 1, 2}, 50); m != 2 {
		t.Fatalf("median of unsorted {3,1,2} = %v, want 2", m)
	}
	if m := Percentile([]float64{1, 2, 3, 4}, 50); m != 2.5 {
		t.Fatalf("median of even-length slice = %v, want 2.5", m)
	}
}
