package telemetry

import (
	"encoding/json"
	"sync"
	"time"
)

// DefaultFlightRing is the default flight-recorder capacity: enough for
// several rounds' worth of state transitions without unbounded growth.
const DefaultFlightRing = 4096

// FlightEvent is one structured flight-recorder entry. Fields are flat and
// fixed so recording is allocation-free: Kind/Comp/Code are expected to be
// constants or long-lived strings (store IDs, phase names) — referencing
// them copies a string header, not the bytes — and the two value slots
// carry whatever numbers the event needs (a version, a byte count, an
// epoch), avoiding any fmt work on the hot path.
type FlightEvent struct {
	Seq  uint64 `json:"seq"`
	At   int64  `json:"at_unix_nano"`
	Kind string `json:"kind"`           // event taxonomy, e.g. "round-start"
	Comp string `json:"comp"`           // component, e.g. "tuner"
	Code string `json:"code,omitempty"` // detail, e.g. a store ID
	V1   int64  `json:"v1,omitempty"`
	V2   int64  `json:"v2,omitempty"`
}

// Flight-recorder event taxonomy. Daemons record state transitions with
// these kinds so a post-mortem dump reads the same across components; see
// DESIGN.md §9 for the full table.
const (
	FlightRoundStart  = "round-start"  // v1=epoch, v2=participants
	FlightRoundCommit = "round-commit" // v1=epoch, v2=model version
	FlightRoundAbort  = "round-abort"  // v1=epoch, code=phase
	FlightEvict       = "evict"        // code=store, v1=epoch
	FlightRetry       = "retry"        // code=store, v1=attempt
	FlightStraggler   = "straggler"    // code=store, v1=epoch
	FlightDeltaApply  = "delta-apply"  // code=store/encoding, v1=version, v2=bytes
	FlightCatchUp     = "catch-up"     // code=store, v1=to-version, v2=bytes
	FlightShed        = "shed"         // code=reason
	FlightExtractRun  = "extract-run"  // v1=run, v2=images
	FlightDump        = "dump"         // the recorder itself being dumped

	// HA / failover taxonomy (S35).
	FlightTakeover      = "takeover"       // v1=leader epoch, v2=model version
	FlightFenced        = "fenced"         // code=sender, v1=stale epoch, v2=fence
	FlightStandbyAttach = "standby-attach" // code=standby, v1=seeded version
	FlightStandbyDetach = "standby-detach" // code=standby, v1=last acked seq
	FlightWALShip       = "wal-ship"       // v1=seq, v2=bytes
	FlightDegraded      = "degraded"       // code=component, v1=1 enter / 0 exit

	// Photo durability taxonomy (S36).
	FlightScrub      = "scrub"      // code=store, v1=objects checked, v2=corrupt found
	FlightQuarantine = "quarantine" // code=store, v1=object id
	FlightReroute    = "reroute"    // code=dead store, v1=epoch, v2=from-run
	FlightRefill     = "refill"     // code=store, v1=copies refilled, v2=copies unfilled
	FlightRetire     = "retire"     // code=retired member, v1=ring members left
)

// FlightRecorder is a bounded, allocation-free ring of structured events —
// the black box every daemon carries. Recording is a mutex-guarded slot
// write (no allocation, no I/O); the ring is served at /flightrec and
// dumped atomically to the state dir on panic or SIGQUIT for post-mortem of
// chaos and crash failures.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []FlightEvent
	pos  int
	full bool
	seq  uint64
}

// NewFlightRecorder creates a recorder keeping the most recent capacity
// events (≤0 selects DefaultFlightRing).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightRing
	}
	return &FlightRecorder{ring: make([]FlightEvent, capacity)}
}

// Record appends one event. Allocation-free: kind/comp/code must be
// constants or strings that outlive the recorder (component names, store
// IDs); do not build them with fmt on the hot path.
func (f *FlightRecorder) Record(kind, comp, code string, v1, v2 int64) {
	now := time.Now().UnixNano()
	f.mu.Lock()
	f.seq++
	slot := &f.ring[f.pos]
	slot.Seq = f.seq
	slot.At = now
	slot.Kind = kind
	slot.Comp = comp
	slot.Code = code
	slot.V1 = v1
	slot.V2 = v2
	f.pos++
	if f.pos == len(f.ring) {
		f.pos = 0
		f.full = true
	}
	f.mu.Unlock()
}

// Events returns the buffered events, oldest first.
func (f *FlightRecorder) Events() []FlightEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []FlightEvent
	if f.full {
		out = make([]FlightEvent, 0, len(f.ring))
		out = append(out, f.ring[f.pos:]...)
	} else {
		out = make([]FlightEvent, 0, f.pos)
	}
	return append(out, f.ring[:f.pos]...)
}

// Len returns how many events are buffered.
func (f *FlightRecorder) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.full {
		return len(f.ring)
	}
	return f.pos
}

// FlightDumpRecord is the serialized dump format: a self-describing header
// plus the event ring, oldest first — replayable by ReadFlightDump.
type FlightDumpRecord struct {
	Component string        `json:"component"`
	At        time.Time     `json:"at"`
	Reason    string        `json:"reason"` // "panic" | "sigquit" | "manual"
	Events    []FlightEvent `json:"events"`
}

// Dump serializes the ring (oldest first) with a reason header. The caller
// writes it somewhere durable — see internal/flightdump for the daemons'
// panic/SIGQUIT path via durable.AtomicWriteFile.
func (f *FlightRecorder) Dump(component, reason string) ([]byte, error) {
	f.Record(FlightDump, component, reason, 0, 0)
	rec := FlightDumpRecord{
		Component: component,
		At:        time.Now(),
		Reason:    reason,
		Events:    f.Events(),
	}
	return json.MarshalIndent(rec, "", " ")
}

// ParseFlightDump decodes a dump produced by Dump, so post-mortem tooling
// (and the crash tests) can replay the event sequence.
func ParseFlightDump(data []byte) (FlightDumpRecord, error) {
	var rec FlightDumpRecord
	err := json.Unmarshal(data, &rec)
	return rec, err
}
