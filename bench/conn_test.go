package main

import (
	"io"
	"net"
	"testing"
	"time"
)

// scriptedRound plays one fine-tune round's traffic across a metered
// connection: request in, features out, delta in, ack out.
func scriptedRound(t *testing.T, store *meterConn, tuner net.Conn) {
	t.Helper()
	send := func(from, to net.Conn, n int) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := io.ReadFull(to, make([]byte, n))
			done <- err
		}()
		if _, err := from.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	send(tuner, store, 10)  // request
	send(store, tuner, 100) // features
	send(store, tuner, 200) // features
	time.Sleep(2 * time.Millisecond)
	send(tuner, store, 50) // delta
	send(store, tuner, 5)  // ack
}

func TestMeterConnCountsAndSegmentsARound(t *testing.T) {
	tl := newTimeline()
	tl.on.Store(true)
	var stores []*meterConn
	var tuners []net.Conn
	for i := 0; i < 2; i++ {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		stores = append(stores, &meterConn{Conn: a, id: i, tl: tl})
		tuners = append(tuners, b)
	}
	start := tl.now()
	scriptedRound(t, stores[0], tuners[0])
	scriptedRound(t, stores[1], tuners[1])
	end := tl.now()

	tot := totalsOf(stores)
	if tot.ReadBytes != 2*60 || tot.WriteBytes != 2*305 || tot.bytes() != 2*365 {
		t.Errorf("bytes read %d written %d, want 120 and 610", tot.ReadBytes, tot.WriteBytes)
	}
	if tot.Reads != 4 || tot.Writes != 6 {
		t.Errorf("calls: %d reads %d writes, want 4 and 6", tot.Reads, tot.Writes)
	}

	seg := segmentRound(tl.window(start, end), 2)
	if !seg.OK {
		t.Fatal("round did not segment")
	}
	if seg.FeatureBytes != 600 || seg.DeltaBytes != 50 || seg.AckBytes != 10 {
		t.Errorf("features %d delta/store %d ack %d, want 600 50 10", seg.FeatureBytes, seg.DeltaBytes, seg.AckBytes)
	}
	// Store 1 finished its features last; store 0 saw the delta first.
	ev := tl.window(start, end)
	var lastFeature1, firstDelta0 time.Duration
	for _, e := range ev {
		if e.Conn == 1 && e.Dir == dirWrite && e.N == 200 {
			lastFeature1 = e.At
		}
		if e.Conn == 0 && e.Dir == dirRead && e.N == 50 {
			firstDelta0 = e.At
		}
	}
	if seg.GatherEnd != lastFeature1 || seg.FirstDelta != firstDelta0 {
		t.Errorf("gather end %v (want %v), first delta %v (want %v)", seg.GatherEnd, lastFeature1, seg.FirstDelta, firstDelta0)
	}

	// A window that ends before the ack is not a whole round.
	if cut := segmentRound(tl.window(start, firstDelta0), 2); cut.OK {
		t.Error("a round cut before its ack still segmented")
	}
}

func TestSegmentRelabel(t *testing.T) {
	ev := []connEvent{
		{At: 1, Conn: 0, Dir: dirRead, N: 9}, {At: 2, Conn: 1, Dir: dirRead, N: 9},
		{At: 5, Conn: 0, Dir: dirWrite, N: 40}, {At: 7, Conn: 1, Dir: dirWrite, N: 60},
	}
	seg := segmentRelabel(ev, 2)
	if !seg.OK || seg.LastLabel != 7 || seg.LabelBytes != 100 {
		t.Errorf("relabel segments = %+v", seg)
	}
	if seg := segmentRelabel(ev[:3], 2); seg.OK {
		t.Error("a store that sent nothing went unnoticed")
	}
}

func TestTimelineRecordsOnlyWhileOn(t *testing.T) {
	tl := newTimeline()
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	mc := &meterConn{Conn: a, tl: tl}
	go io.Copy(io.Discard, b)
	if _, err := mc.Write([]byte("quiet")); err != nil {
		t.Fatal(err)
	}
	tl.on.Store(true)
	if _, err := mc.Write([]byte("loud")); err != nil {
		t.Fatal(err)
	}
	if ev := tl.window(0, tl.now()); len(ev) != 1 || ev[0].N != 4 {
		t.Errorf("timeline = %+v, want the one 4-byte write", ev)
	}
	if mc.wrBytes.Load() != 9 || mc.writes.Load() != 2 {
		t.Errorf("counters %d bytes %d writes, want 9 and 2", mc.wrBytes.Load(), mc.writes.Load())
	}
}
