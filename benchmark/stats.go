package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// (choosing-metrics §1): a p99 over fewer than a thousand samples is decided
// by a handful of requests and does not repeat run to run.
const minBeyond = 10

// nearestRank is the 1-based rank of the q-quantile (0 < q <= 1) among n
// sorted samples: the smallest rank with at least q·n samples at or below
// it. n minus it is how many samples lie beyond the quantile.
func nearestRank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n))), 1), n)
}

// percentile returns the exact q-quantile of the samples by the nearest-rank
// rule. No buckets: a regression bound of a tenth cannot be resolved through
// 8 %-wide bins. The input is not modified. An empty input yields 0.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[nearestRank(len(sorted), q)-1]
}

// median is the midpoint median (mean of the two middle values for even n),
// matching Python's statistics.median, which the driver uses.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// mean is the arithmetic mean (0 for no samples).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples))
}

// ratio is a/b, or 0 when b is 0 — per-layer ratios on workloads that idle
// the layer report 0, not NaN (JSON has no NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive" method),
// which is how the driver measures run-to-run spread. It needs two samples.
func quartiles(samples []float64) (q1, q2, q3 float64) {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	n := len(sorted)
	cut := func(i int) float64 {
		// Clamp first, then interpolate — or, past the ends, extrapolate — as
		// Python does.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
