package main

import (
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is what the driver reads and the code is what runs: the
// names, units and directions must be the same list, and the file must stay
// inside the contract's limits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if info, _ := os.Stat("../BENCHMARK.json"); info.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", info.Size())
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: file has %q, code has %q (or their reasons differ)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: file %+v, code %+v", i, m, d)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer %d: file %+v, code %+v", i, m, d)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", bf.RunSeconds, bf.Paths)
	}
}
