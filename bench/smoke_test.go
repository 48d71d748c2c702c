package main

import (
	"path/filepath"
	"testing"
)

// The smoke pass: all four workloads at 1/50 size, one iteration each, every
// correctness gate on, every end-to-end metric reported; then one traced run,
// which must report every per-layer metric and a span tree.
func TestSmokeAllWorkloads(t *testing.T) {
	if err := quietLogs(); err != nil {
		t.Fatal(err)
	}
	opt := runOptions{Seed: 7, MinIters: 1, Dir: t.TempDir()}
	for _, spec := range workloads {
		res, _, err := runWorkload(spec.scaled(50), opt)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", spec.Name, res.Correct, res.Attempted, res.Failed, res.notes)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v (reported: %v)", spec.Name, d.Name, v, ok)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics in an untraced run, want the %d end-to-end ones", spec.Name, len(res.Metrics), len(endToEnd))
		}
	}
}

func TestSmokeTracedRun(t *testing.T) {
	if err := quietLogs(); err != nil {
		t.Fatal(err)
	}
	spec, _ := findWorkload("cycle_gather")
	opt := runOptions{Seed: 7, MinIters: 2, Trace: true, Dir: t.TempDir()}
	res, spans, err := runWorkload(spec.scaled(50), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run failed its gates: %v", res.notes)
	}
	for _, d := range perLayer {
		if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("%s = %+v (reported: %v)", d.Name, v, ok)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics in a traced run, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	// The span tree: cycle ▸ tuner.FineTune ▸ gather / train_tail / commit.
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	found := map[string]bool{}
	for _, s := range spans {
		if s.End < s.Start || s.Workload != "cycle_gather" {
			t.Errorf("span %+v", s)
		}
		if s.Name == "gather" || s.Name == "train_tail" || s.Name == "commit" {
			if p := byID[s.Parent]; p.Name != "tuner.FineTune" || byID[p.Parent].Name != "cycle" {
				t.Errorf("%s hangs under %q, want tuner.FineTune under cycle", s.Name, p.Name)
			}
		}
		found[s.Name] = true
	}
	for _, want := range []string{"iteration", "setup", "cycle", "tuner.FineTune", "gather", "train_tail", "commit",
		"tuner.OfflineInference", "uploads.saturated", "uploads.paced", "upload", "probe.model"} {
		if !found[want] {
			t.Errorf("no %q span in the trace", want)
		}
	}
	if err := writeSpans(filepath.Join(opt.Dir, "trace.json"), spans); err != nil {
		t.Error(err)
	}
}
