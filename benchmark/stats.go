package main

import (
	"math"
	"sort"
)

// percentile returns the q-th percentile (0 < q <= 100) of samples by the
// nearest-rank rule: the smallest sample with at least q% of the samples at
// or below it. It returns 0 for an empty slice. samples must be sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(q, len(sorted))-1]
}

// rankOf is the 1-based nearest rank of the q-th percentile among n
// samples. The small slack keeps a product that is a whole number in exact
// arithmetic (99.9% of 10000) from being rounded up past it.
func rankOf(q float64, n int) int {
	rank := int(math.Ceil(q*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// tailCandidates are the percentiles a timing may be reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it, so the reported tail is never one outlier.
// With fewer than 40 samples only the median qualifies.
func tailPercentile(n int) float64 {
	for _, q := range tailCandidates {
		if n-rankOf(q, n) >= 10 {
			return q
		}
	}
	return 50
}

// sortedCopy returns samples in ascending order without disturbing the
// caller's slice (sample order is kept for the trace files).
func sortedCopy(samples []float64) []float64 {
	out := append([]float64(nil), samples...)
	sort.Float64s(out)
	return out
}

// median is the 50th percentile of unsorted samples.
func median(samples []float64) float64 {
	return percentile(sortedCopy(samples), 50)
}

func sum(samples []float64) float64 {
	var s float64
	for _, v := range samples {
		s += v
	}
	return s
}
