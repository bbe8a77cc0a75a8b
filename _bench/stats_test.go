package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helper must sort
	}
	return xs
}

func TestPercentileReportsSampleCount(t *testing.T) {
	q, err := percentile(seq(100), 90)
	if err != nil {
		t.Fatal(err)
	}
	if q.Value != 90 || q.N != 100 {
		t.Fatalf("p90 of 1..100 = %+v, want value 90 from 100 samples", q)
	}
	q, err = percentile(seq(1000), 99)
	if err != nil {
		t.Fatal(err)
	}
	if q.Value != 990 || q.N != 1000 {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990 from 1000 samples", q)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{
		{99, 90},  // 9 samples beyond the rank
		{999, 99}, // 9 beyond
		{19, 50},  // 9 beyond
		{0, 50},
	} {
		q, err := percentile(seq(c.n), c.p)
		if err == nil {
			t.Errorf("p%v of %d samples = %v, want a refusal", c.p, c.n, q.Value)
		}
		if q.N != c.n {
			t.Errorf("p%v refusal reports %d samples, want %d", c.p, q.N, c.n)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", m)
	}
}
