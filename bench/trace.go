package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer. Spans are recorded
// from the benchmark's own files, around calls into the program; spans from
// inside the program are a later change (ISSUE 12).
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 = root
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Start    float64 `json:"start_s"` // seconds since the tracer's epoch
	End      float64 `json:"end_s"`
}

// tracer keeps spans in memory and writes them out when the run ends. It
// records only while on, so an untraced unit of work pays one atomic load.
type tracer struct {
	on       atomic.Bool
	epoch    time.Time
	workload string

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string, epoch time.Time) *tracer {
	return &tracer{epoch: epoch, workload: workload}
}

// start opens a span and returns its id, or 0 when tracing is off.
func (t *tracer) start(name string, parent int) int {
	if !t.on.Load() {
		return 0
	}
	at := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: at})
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	at := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// add records a span whose bounds were worked out after the fact (the
// gather / train_tail / commit split comes from the socket timeline).
func (t *tracer) add(name string, parent int, start, end time.Duration) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: t.workload, Start: start.Seconds(), End: end.Seconds()})
}

// take returns the recorded spans.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// writeSpans writes the spans of a process's traced runs to path.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
