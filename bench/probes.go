package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps a metric's name to its value.
type metricSet map[string]metricValue

func (m metricSet) set(name string, v float64, unit string) { m[name] = metricValue{v, unit} }

// medianMicros calls f `reps` times and returns the median wall time of one
// call in microseconds.
func medianMicros(reps int, f func()) float64 {
	samples := make([]float64, reps)
	for i := range samples {
		t0 := time.Now()
		f()
		samples[i] = time.Since(t0).Seconds() * 1e6
	}
	return median(samples)
}

// layerProbes runs every micro-probe that needs no live rig, under spans so
// the trace shows where the traced run's extra time went.
func layerProbes(m metricSet, tr *tracer, in inputs, dir string) error {
	probeDir := filepath.Join(dir, "probes")
	defer os.RemoveAll(probeDir)
	for _, p := range []struct {
		name string
		run  func() error
	}{
		{"probe.serving", func() error { return servingProbes(m, in) }},
		{"probe.storage", func() error { return storageProbes(m, in, probeDir) }},
		{"probe.model", func() error { return modelProbes(m, in) }},
		{"probe.commit", func() error { return commitProbes(m, in, probeDir) }},
	} {
		id := tr.start(p.name, 0)
		err := p.run()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}
