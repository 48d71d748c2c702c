package telemetry

import (
	"testing"
)

func TestFlightRecorderRingBoundedOldestFirst(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := int64(1); i <= 6; i++ {
		f.Record(FlightRoundStart, "t", "", i, 0)
	}
	evs := f.Events()
	if len(evs) != 4 || f.Len() != 4 {
		t.Fatalf("len = %d/%d, want 4", len(evs), f.Len())
	}
	for i, ev := range evs {
		if want := int64(3 + i); ev.V1 != want {
			t.Fatalf("event %d has v1=%d, want %d (oldest first)", i, ev.V1, want)
		}
		if i > 0 && evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq not monotone: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

func TestFlightDumpParseRoundtrip(t *testing.T) {
	f := NewFlightRecorder(16)
	f.Record(FlightRoundStart, "tuner", "", 1, 3)
	f.Record(FlightStraggler, "tuner", "ps-2", 1, 0)
	data, err := f.Dump("tuner", "manual")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ParseFlightDump(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Component != "tuner" || rec.Reason != "manual" {
		t.Fatalf("header = %+v", rec)
	}
	// The dump records itself as the final event.
	if n := len(rec.Events); n != 3 || rec.Events[n-1].Kind != FlightDump {
		t.Fatalf("events = %+v", rec.Events)
	}
	if rec.Events[1].Kind != FlightStraggler || rec.Events[1].Code != "ps-2" {
		t.Fatalf("straggler event = %+v", rec.Events[1])
	}
}

// Recording must never allocate: the ring sits on round and request hot
// paths, and a black box that creates GC pressure perturbs what it records.
func TestFlightRecordAllocationFree(t *testing.T) {
	f := NewFlightRecorder(64)
	allocs := testing.AllocsPerRun(1000, func() {
		f.Record(FlightRetry, "tuner", "ps-0", 2, 0)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestRegistryFlightRecorderWired(t *testing.T) {
	reg := NewRegistry()
	if reg.Flight() == nil {
		t.Fatal("registry has no flight recorder")
	}
	reg.Flight().Record(FlightScrub, "test", "wal", 128, 0)
	if reg.Flight().Len() != 1 {
		t.Fatal("event not recorded")
	}
}
