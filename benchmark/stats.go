package main

import (
	"math"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported: a p99 of 300 samples is three requests, not a tail.
const minBeyond = 10

// percentile returns the p-quantile (nearest rank, 0 < p < 1) of sorted and
// whether it may be reported, which needs minBeyond samples above it.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], n-1-rank >= minBeyond
}

// reportable returns the percentile, or 0 when too few samples lie beyond
// it to report one.
func reportable(sorted []float64, p float64) float64 {
	v, ok := percentile(sorted, p)
	if !ok {
		return 0
	}
	return v
}

// relDiff is (b-a)/a, the relative move from a to b.
func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / a
}
