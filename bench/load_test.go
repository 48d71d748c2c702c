package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// An open loop must charge a slow server for the queue it builds: with ops
// due every 1 ms and 5 ms of service on one caller, op i waits behind i
// others, so latency from the due time grows far past the service time. A
// closed loop would report 5 ms for every op.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const n, service = 40, 5 * time.Millisecond
	res := openLoop(1000, n, 1, time.Sleep, func(int) error {
		time.Sleep(service)
		return nil
	})
	if res.Sent != n || len(res.LatencyMs) != n || res.Failed != 0 {
		t.Fatalf("sent %d, %d latencies, %d failed", res.Sent, len(res.LatencyMs), res.Failed)
	}
	sum := summarize(res.LatencyMs)
	// The last op was due at 39 ms and finishes no earlier than 40×5 ms.
	if last := sum.Sorted[n-1]; last < 150 {
		t.Errorf("slowest latency %.1f ms: the backlog was not charged to the ops it delayed", last)
	}
	if sum.P50 < 4*float64(service.Milliseconds()) {
		t.Errorf("median latency %.1f ms is about the service time: measured from send, not from due", sum.P50)
	}
}

// A generator that runs late must say so, and the ops it released late must
// carry the delay in their latency.
func TestOpenLoopReportsGeneratorLateness(t *testing.T) {
	stalled := false
	sleep := func(d time.Duration) {
		if !stalled {
			stalled = true
			d += 30 * time.Millisecond // one oversleep, as a descheduled generator would
		}
		time.Sleep(d)
	}
	res := openLoop(200, 10, 4, sleep, func(int) error { return nil })
	late := summarize(res.LateMs)
	if late.Sorted[len(late.Sorted)-1] < 25 {
		t.Errorf("largest lateness %.1f ms, want the 30 ms oversleep to show", late.Sorted[len(late.Sorted)-1])
	}
	if late.Sorted[0] < 0 {
		t.Errorf("negative lateness %v", late.Sorted[0])
	}
	lat := summarize(res.LatencyMs)
	if lat.Sorted[len(lat.Sorted)-1] < 25 {
		t.Errorf("slowest latency %.1f ms does not include the generator's delay", lat.Sorted[len(lat.Sorted)-1])
	}
}

func TestDueTimeIsAFixedSchedule(t *testing.T) {
	start := time.Unix(100, 0)
	if got := dueTime(start, 0, 250).Sub(start); got != 0 {
		t.Errorf("op 0 due after %v", got)
	}
	if got := dueTime(start, 500, 250).Sub(start); got != 2*time.Second {
		t.Errorf("op 500 at 250/s due after %v, want 2s", got)
	}
}

func TestClosedLoopWindowsAndFailures(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	res := closedLoop(1000, 8, 100, func(i int) error {
		calls.Add(1)
		time.Sleep(20 * time.Microsecond) // windows long enough to order their stamps
		if i%250 == 0 {
			return boom
		}
		return nil
	})
	if calls.Load() != 1000 || res.Done != 1000 {
		t.Errorf("ran %d ops, counted %d, want 1000", calls.Load(), res.Done)
	}
	if res.Failed != 4 {
		t.Errorf("failed = %d, want 4", res.Failed)
	}
	if len(res.Windows) != 10 {
		t.Fatalf("%d windows, want 10", len(res.Windows))
	}
	var sum float64
	for _, w := range res.Windows {
		if w <= 0 {
			t.Errorf("window took %v s", w)
		}
		sum += w
	}
	if sum > res.Elapsed.Seconds() {
		t.Errorf("windows add up to %v s of a %v pass", sum, res.Elapsed)
	}
}
