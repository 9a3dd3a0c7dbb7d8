package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: with
// fewer, the percentile is set by a handful of outliers and does not repeat.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (mean of the two middles for even n), or
// 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs. It refuses, with an
// error, a quantile that has fewer than minBeyond samples beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %.3g of %d samples is undefined", q, n)
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if beyond := n - 1 - i; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	return sorted(xs)[i], nil
}

// pctl is percentile, except that a quick run (too small for any tail to be
// admissible) takes the nearest rank unguarded; its numbers are not
// comparable anyway.
func (r *run) pctl(xs []float64, q float64) (float64, error) {
	if r.cfg.quick && len(xs) > 0 {
		return sorted(xs)[int(q*float64(len(xs)-1))], nil
	}
	return percentile(xs, q)
}

// geomean returns the geometric mean of positive values (0 if any is not).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// iqrShare is the interquartile distance of xs as a share of its median,
// with the quartiles Python's statistics.quantiles(xs, n=4) gives (the
// exclusive method) so it matches the driver's acceptance arithmetic.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := sorted(xs)
	quart := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(quart(3)-quart(1)) / math.Abs(med)
}

// quietShare is the share of a pass's rounds its statistics are taken over:
// the quietest two thirds, by reference-normalised cost. Interference on a
// shared host only ever adds time, in bursts that last a round or two; a
// change to the program moves every round, so it still shows.
const quietShare = 2.0 / 3

// quietest returns the indices of the ceil(quietShare*n) lowest costs.
func quietest(costs []float64) []int {
	idx := make([]int, len(costs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return costs[idx[a]] < costs[idx[b]] })
	return idx[:int(math.Ceil(quietShare*float64(len(costs))))]
}

// pick returns xs at the given indices.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}
