package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {1, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

// The rule: quote the highest percentile that still has ten samples beyond
// it, and nothing but the median when even p90 does not.
func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{99, 0, false},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		p, ok := supportedTail(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeReportsMedianTailAndCount(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // unsorted on purpose
	}
	s := summarize(samples)
	if s.N != 1000 || s.P50 != 500 || s.TailP != 99 || s.Tail != 990 {
		t.Errorf("summarize = N %d p50 %v tail p%v=%v", s.N, s.P50, s.TailP, s.Tail)
	}
	if small := summarize(samples[:50]); small.TailP != 0 || small.P50 == 0 {
		t.Errorf("50 samples support no tail, got p%v", small.TailP)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the acceptance spread is defined by.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1.0, 2.0, 4.0, 7.0, 11.0], n=4) == [1.5, 4.0, 9.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 7, 11})
	if q1 != 1.5 || q2 != 4 || q3 != 9 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 9", q1, q2, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
