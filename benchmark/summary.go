package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0–100) of xs by nearest rank; xs
// need not be sorted. Empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// supportedPercentile is the highest percentile a sample of n supports: the
// one that still has ten samples beyond it. A tail read from fewer than ten
// samples is a few outliers, not a percentile. Zero when n cannot support any.
func supportedPercentile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return 100 * float64(n-10) / float64(n)
}

// bandMean is the mean of the sorted values from the lo-th to the hi-th
// quantile (fractions of 1). A single order statistic of a mix of query types
// sits in a gap between two types' latencies and jumps from one to the other
// on a few samples; a mean over a band of order statistics moves smoothly.
func bandMean(xs []float64, lo, hi float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	from := int(math.Floor(lo * float64(len(s))))
	to := int(math.Ceil(hi * float64(len(s))))
	if to <= from {
		to = from + 1
	}
	return mean(s[from:min(to, len(s))])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, 0 when b is 0 (a layer that did no work reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
