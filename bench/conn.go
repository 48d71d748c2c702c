package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// meterConn wraps the net.Conn handed to a PipeStore's Serve loop — the one
// place every byte between a store and the Tuner crosses exactly once. It
// always counts calls and bytes (two atomic adds per socket call); while the
// timeline is switched on it also records when each call returned.
//
// Directions are named from the store's side: a Read is Tuner→store traffic
// (requests, the model delta), a Write is store→Tuner traffic (features,
// spans, acks, labels).
type meterConn struct {
	net.Conn
	id int
	tl *timeline

	reads, writes      atomic.Int64
	readBytes, wrBytes atomic.Int64
}

const (
	dirRead  = 0 // Tuner → store
	dirWrite = 1 // store → Tuner
)

func (c *meterConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
		c.readBytes.Add(int64(n))
		c.tl.record(c.id, dirRead, n)
	}
	return n, err
}

func (c *meterConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.writes.Add(1)
		c.wrBytes.Add(int64(n))
		c.tl.record(c.id, dirWrite, n)
	}
	return n, err
}

// connTotals is a snapshot of the counters of a set of connections.
type connTotals struct {
	Reads, Writes, ReadBytes, WriteBytes int64
}

func (t connTotals) sub(o connTotals) connTotals {
	return connTotals{t.Reads - o.Reads, t.Writes - o.Writes, t.ReadBytes - o.ReadBytes, t.WriteBytes - o.WriteBytes}
}

func (t connTotals) bytes() int64 { return t.ReadBytes + t.WriteBytes }

func totalsOf(conns []*meterConn) connTotals {
	var t connTotals
	for _, c := range conns {
		t.Reads += c.reads.Load()
		t.Writes += c.writes.Load()
		t.ReadBytes += c.readBytes.Load()
		t.WriteBytes += c.wrBytes.Load()
	}
	return t
}

// connEvent is one socket call that moved bytes.
type connEvent struct {
	At   time.Duration // since the timeline's epoch, taken when the call returned
	Conn int
	Dir  int
	N    int
}

// timeline is the per-run record of socket calls, appended to only while on.
type timeline struct {
	on    atomic.Bool
	epoch time.Time

	mu     sync.Mutex
	events []connEvent
}

func newTimeline() *timeline { return &timeline{epoch: time.Now()} }

func (t *timeline) record(conn, dir, n int) {
	if t == nil || !t.on.Load() {
		return
	}
	at := time.Since(t.epoch)
	t.mu.Lock()
	t.events = append(t.events, connEvent{At: at, Conn: conn, Dir: dir, N: n})
	t.mu.Unlock()
}

func (t *timeline) now() time.Duration { return time.Since(t.epoch) }

// window returns a copy of the events with from <= At <= to, in record order
// (which is time order per connection).
func (t *timeline) window(from, to time.Duration) []connEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []connEvent
	for _, e := range t.events {
		if e.At >= from && e.At <= to {
			out = append(out, e)
		}
	}
	return out
}

// roundSegments is what the socket timeline says about one fine-tune round.
// On every connection the round is: the request arrives (read), the store
// streams features (writes), the delta arrives (read), the store acks
// (writes). The Tuner sends nothing else inside a round shorter than its
// 15 s ping threshold, so the second read burst is the delta.
type roundSegments struct {
	OK           bool
	GatherEnd    time.Duration // last feature byte left a store (latest over stores)
	FirstDelta   time.Duration // first delta byte reached a store (earliest over stores)
	FeatureBytes int64         // store→Tuner bytes before the delta, all stores
	DeltaBytes   int64         // Tuner→store bytes of the delta burst, mean per store
	AckBytes     int64         // store→Tuner bytes after the delta, all stores
}

// segmentRound splits the events of one FineTune call (already cut to the
// call's window) at the direction changes described on roundSegments.
func segmentRound(events []connEvent, conns int) roundSegments {
	var seg roundSegments
	seen := 0
	var deltaTotal int64
	for c := 0; c < conns; c++ {
		phase := 0 // 0 request, 1 features, 2 delta, 3 ack
		var lastFeature, firstDelta time.Duration
		for _, e := range events {
			if e.Conn != c {
				continue
			}
			switch {
			case phase == 0 && e.Dir == dirWrite:
				phase = 1
			case phase == 1 && e.Dir == dirRead:
				phase = 2
				firstDelta = e.At
			case phase == 2 && e.Dir == dirWrite:
				phase = 3
			}
			switch phase {
			case 1:
				seg.FeatureBytes += int64(e.N)
				lastFeature = e.At
			case 2:
				deltaTotal += int64(e.N)
			case 3:
				seg.AckBytes += int64(e.N)
			}
		}
		if phase != 3 {
			return roundSegments{}
		}
		if seen == 0 || lastFeature > seg.GatherEnd {
			seg.GatherEnd = lastFeature
		}
		if seen == 0 || firstDelta < seg.FirstDelta {
			seg.FirstDelta = firstDelta
		}
		seen++
	}
	if seen == 0 {
		return roundSegments{}
	}
	seg.DeltaBytes = deltaTotal / int64(seen)
	seg.OK = true
	return seg
}

// relabelSegments is the timeline view of one OfflineInference call: the
// request arrives, the store answers with spans and labels.
type relabelSegments struct {
	OK         bool
	LastLabel  time.Duration // last store→Tuner byte (latest over stores)
	LabelBytes int64         // store→Tuner bytes, all stores
}

func segmentRelabel(events []connEvent, conns int) relabelSegments {
	var seg relabelSegments
	for c := 0; c < conns; c++ {
		wrote := false
		for _, e := range events {
			if e.Conn != c || e.Dir != dirWrite {
				continue
			}
			wrote = true
			seg.LabelBytes += int64(e.N)
			if e.At > seg.LastLabel {
				seg.LastLabel = e.At
			}
		}
		if !wrote {
			return relabelSegments{}
		}
	}
	seg.OK = conns > 0
	return seg
}
