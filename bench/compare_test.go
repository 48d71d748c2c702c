package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   verdict
	}{
		{"same runs, lower is better", steady, steady, false, 0.1, within},
		{"latency up 20 % against a 10 % bound", steady, shift(steady, 1.2), false, 0.1, worse},
		{"latency up 5 % against a 10 % bound", steady, shift(steady, 1.05), false, 0.1, within},
		{"throughput down 20 %", steady, shift(steady, 0.8), true, 0.1, worse},
		{"throughput up 20 %: every run ahead", steady, shift(steady, 1.2), true, 0.1, better},
		{"latency down 20 %: every run ahead", steady, shift(steady, 0.8), false, 0.1, better},
		{"spread wider than the bound", noisy, noisy, false, 0.1, unresolved},
		{"noisy but every run ahead", noisy, shift(steady, 0.1), false, 0.1, better},
		{"2 % better is inside the parent's own spread", steady, shift(steady, 0.98), false, 0.1, within},
	} {
		if got, _ := judge(c.a, c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if _, by := judge(steady, shift(steady, 1.2), false, 0.1); by < 0.19 || by > 0.21 {
		t.Errorf("worse-by share = %v, want 0.2", by)
	}
	if _, by := judge(steady, shift(steady, 1.2), true, 0.1); by > -0.19 {
		t.Errorf("a throughput gain must read as negative worse-by, got %v", by)
	}
}

func TestCompareRunsFlagsRegressionsAndFailures(t *testing.T) {
	bf := benchmarkFile{EndToEnd: []boundedMetric{
		{Name: "finetune_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "upload_ups", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	set := func(ft, ups float64, failed int) []runResult {
		var runs []runResult
		for i := 0; i < 5; i++ {
			jitter := 1 + float64(i-2)/200
			runs = append(runs, runResult{Workload: "cycle_gather", Attempted: 100, Failed: failed, Correct: failed == 0,
				Metrics: metricSet{"finetune_s": {ft * jitter, "s"}, "upload_ups": {ups * jitter, "1/s"}}})
		}
		return runs
	}
	var out bytes.Buffer
	if compareRuns(&out, bf, set(1, 1000, 0), set(1.01, 1000, 0)) {
		t.Errorf("an A/A pair regressed:\n%s", out.String())
	}
	if rows := strings.Count(out.String(), "cycle_gather"); rows != 2 {
		t.Errorf("%d rows for one workload and two metrics:\n%s", rows, out.String())
	}
	out.Reset()
	if !compareRuns(&out, bf, set(1, 1000, 0), set(1.3, 1000, 0)) || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 30 %% slower round passed:\n%s", out.String())
	}
	out.Reset()
	if !compareRuns(&out, bf, set(1, 1000, 0), set(1, 1000, 3)) {
		t.Errorf("a higher failed-operation share passed:\n%s", out.String())
	}
}
