package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// closedResult is one saturated closed-loop pass.
type closedResult struct {
	Done    int
	Failed  int
	Elapsed time.Duration
	// Windows holds how long, in seconds, each consecutive window of `window`
	// completions took, so that a window a noisy neighbour stole half of can
	// be told from the rest. A window whose boundary stamps arrived out of
	// order reads 0 and is to be ignored.
	Windows []float64
}

// closedLoop issues ops 0..n-1 from `callers` goroutines, each sending its
// next op only after the previous one returned.
func closedLoop(n, callers, window int, do func(i int) error) closedResult {
	if window < 1 {
		window = n
	}
	stamps := make([]time.Duration, n/window+1)
	var next, done, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := do(i); err != nil {
					failed.Add(1)
				}
				// Each window boundary is crossed by exactly one completion,
				// so each slot has one writer.
				if d := int(done.Add(1)); d%window == 0 {
					stamps[d/window] = time.Since(start)
				}
			}
		}()
	}
	wg.Wait()
	res := closedResult{Done: int(done.Load()), Failed: int(failed.Load()), Elapsed: time.Since(start)}
	for k := 1; k <= n/window; k++ {
		res.Windows = append(res.Windows, max(0, (stamps[k]-stamps[k-1]).Seconds()))
	}
	return res
}

// pacedResult is one open-loop pass at a fixed rate.
type pacedResult struct {
	Sent      int
	Failed    int
	LatencyMs []float64 // completion time minus the time the op was due
	LateMs    []float64 // how long after its due time the generator released each op
}

type pacedJob struct {
	i   int
	due time.Time
}

// openLoop releases op i at start + i/rate whether or not earlier ops have
// returned, to `callers` parked goroutines. Latency runs from the due time,
// so a stall charges every op it delays, and the generator's own lateness is
// reported beside it. sleep is time.Sleep outside tests.
func openLoop(rate float64, n, callers int, sleep func(time.Duration), do func(i int) error) pacedResult {
	jobs := make(chan pacedJob, n) // sized to n sends: the generator never blocks on busy callers
	lat := make([][]float64, callers)
	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := range jobs {
				if err := do(j.i); err != nil {
					failed.Add(1)
				}
				lat[c] = append(lat[c], time.Since(j.due).Seconds()*1e3)
			}
		}(c)
	}
	late := make([]float64, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := dueTime(start, i, rate)
		// Sleeps shorter than the timer's resolution overshoot by more than
		// they wait; ops due within it are released in one burst.
		if wait := time.Until(due); wait > 200*time.Microsecond {
			sleep(wait)
		}
		late = append(late, max(0, time.Since(due).Seconds()*1e3))
		jobs <- pacedJob{i: i, due: due}
	}
	close(jobs)
	wg.Wait()
	res := pacedResult{Sent: n, Failed: int(failed.Load()), LateMs: late}
	for _, l := range lat {
		res.LatencyMs = append(res.LatencyMs, l...)
	}
	return res
}

// dueTime is when op i of a fixed-rate schedule is due.
func dueTime(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}
