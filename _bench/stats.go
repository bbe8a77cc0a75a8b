package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie above a reported
// percentile: a tail figure resting on fewer is one or two unlucky
// requests, not a percentile.
const minBeyond = 10

// quantile is a percentile together with the sample count it rests on.
type quantile struct {
	Value float64
	N     int
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs
// and the number of samples it was taken from. It refuses, with an error,
// when fewer than minBeyond samples lie above the rank, so a run too short
// for its tail reports no tail rather than a noisy one.
func percentile(xs []float64, p float64) (quantile, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p > 100 {
		return quantile{N: n}, fmt.Errorf("p%v of %d samples: undefined", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return quantile{N: n}, fmt.Errorf("p%v of %d samples leaves %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile{Value: s[rank-1], N: n}, nil
}

// median is the middle sample (mean of the middle two for an even count);
// it is defined for any non-empty sample, because the benchmark reports
// medians of as few as one repetition.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
