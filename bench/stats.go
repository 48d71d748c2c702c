package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for even n),
// 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of a sorted
// slice: the smallest sample with at least p % of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailCandidates are the percentiles a latency report may quote, highest
// first, each with the smallest sample that leaves ten samples beyond it.
var tailCandidates = []struct {
	p    float64
	minN int
}{{99.99, 100000}, {99.9, 10000}, {99, 1000}, {95, 200}, {90, 100}}

// supportedTail is the sample-count rule: the highest candidate percentile
// that still has at least ten samples beyond it. Below 100 samples none
// qualifies and only the median is reported.
func supportedTail(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n >= c.minN {
			return c.p, true
		}
	}
	return 0, false
}

// latencySummary is a timing reported the way the metrics guide asks:
// median, the highest supported percentile, and the sample count.
type latencySummary struct {
	N      int
	P50    float64
	TailP  float64 // which percentile Tail is; 0 when the sample is too small
	Tail   float64
	P99    float64 // nearest-rank p99 regardless of support (diagnostic)
	Sorted []float64
}

func summarize(samples []float64) latencySummary {
	s := sortedCopy(samples)
	out := latencySummary{N: len(s), Sorted: s}
	if len(s) == 0 {
		return out
	}
	out.P50 = percentile(s, 50)
	out.P99 = percentile(s, 99)
	if p, ok := supportedTail(len(s)); ok {
		out.TailP, out.Tail = p, percentile(s, p)
	}
	return out
}

// quartiles returns Q1, Q2, Q3 the way Python's statistics.quantiles(n=4)
// does (exclusive method), which is what the acceptance spread is defined by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
