// Package wire is the TCP protocol between the Tuner and its PipeStores
// (and between a leader Tuner and its standby): typed messages in
// length-prefixed, CRC32C-checked binary frames over a persistent
// connection. It carries the whole FT-DMP conversation — training requests,
// fp16 feature batches, Check-N-Run model deltas, offline-inference requests
// and label results. frame.go has the frame layout and the Codec, coder.go
// the per-type field layout, half.go the binary16 conversion.
package wire

import (
	"fmt"

	"ndpipe/internal/telemetry"
)

// MsgType discriminates protocol messages.
type MsgType uint8

// Protocol message types.
const (
	MsgHello        MsgType = iota + 1 // store → tuner: registration
	MsgTrainRequest                    // tuner → store: start FT-DMP feature extraction
	MsgFeatures                        // store → tuner: one feature batch
	MsgModelDelta                      // tuner → store: Check-N-Run delta broadcast
	MsgInferRequest                    // tuner → store: run offline inference
	MsgLabels                          // store → tuner: offline-inference results
	MsgAck                             // either direction: acknowledgement
	MsgError                           // either direction: failure report
	MsgSpans                           // store → tuner: finished trace spans for stitching
	MsgPing                            // tuner → store: liveness probe (silent-death detection)
	MsgPong                            // store → tuner: liveness reply, echoing the ping's epoch
	MsgMetrics                         // store → tuner: registry snapshot for the fleet aggregator
	MsgWALAppend                       // leader → standby: one durable WAL record (or bootstrap seed)
	MsgWALAck                          // standby → leader: record applied and locally durable
	MsgStandbyHello                    // standby → leader: replication-channel registration
	MsgObjectPut                       // tuner → store: store replicated/repaired photo objects
	MsgObjectFetch                     // tuner → store: fetch photo objects by ID
	MsgObjects                         // store → tuner: photo object payloads (chunked, Final-terminated)
	MsgScrubQuery                      // tuner → store: scrub, then report holdings
	MsgScrubReport                     // store → tuner: servable and quarantined object IDs
)

// lastMsgType is the highest defined MsgType; the per-type metric arrays
// are sized off it.
const lastMsgType = MsgScrubReport

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgTrainRequest:
		return "train-request"
	case MsgFeatures:
		return "features"
	case MsgModelDelta:
		return "model-delta"
	case MsgInferRequest:
		return "infer-request"
	case MsgLabels:
		return "labels"
	case MsgAck:
		return "ack"
	case MsgError:
		return "error"
	case MsgSpans:
		return "spans"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgMetrics:
		return "metrics"
	case MsgWALAppend:
		return "wal-append"
	case MsgWALAck:
		return "wal-ack"
	case MsgStandbyHello:
		return "standby-hello"
	case MsgObjectPut:
		return "object-put"
	case MsgObjectFetch:
		return "object-fetch"
	case MsgObjects:
		return "objects"
	case MsgScrubQuery:
		return "scrub-query"
	case MsgScrubReport:
		return "scrub-report"
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// Message is the single envelope exchanged on the wire. The first block is
// the common header every frame carries; of the rest, only the fields listed
// under the message's Type are encoded (see coder.message for the exact
// layout) — anything else set on the struct does not leave the process.
type Message struct {
	Type    MsgType
	StoreID string

	// Trace context; the zero values mean "untraced".
	Trace  telemetry.TraceID // trace this message belongs to
	Parent telemetry.SpanID  // sender's span: the remote parent for receiver-side spans

	// Epoch tags the message with the Tuner round it belongs to. The Tuner
	// stamps it on every request and stores echo it on every reply, so a
	// buffered feature batch or ack left over from a failed round is
	// detectably stale instead of poisoning the next round. Zero means
	// "outside any round" (registration, catch-up).
	Epoch int

	// LeaderEpoch extends the round-level Epoch to leader-level fencing: a
	// tuner stamps its durable leadership term on every outbound message,
	// and stores reject any message carrying a term lower than the highest
	// they have seen — a deposed leader's delayed or replayed traffic can
	// never advance state. Zero is a tuner that runs without HA: unfenced.
	LeaderEpoch uint64

	// MsgTrainRequest / MsgInferRequest / MsgScrubQuery (BatchSize only)
	Runs      int // pipeline depth Nrun
	BatchSize int

	// Placement routing, on MsgTrainRequest / MsgInferRequest when the
	// tuner runs with replication enabled. The
	// tuner ships the whole ring (membership + factor) instead of a
	// per-photo assignment: every store derives identical placement locally
	// (internal/placement is deterministic over the sorted member list), so
	// the routing map costs O(fleet) bytes per request, not O(photos).
	// A store extracts exactly the photos it owns — owner(photo) = first
	// LIVE replica on the ring — so a re-sent request with a shrunken
	// LiveStores list reroutes a dead store's photos to survivors mid-round.
	// PrevLive (set only on re-sent requests) is the live set the previous
	// request carried: a store re-extracts only photos it owns NOW but did
	// not own THEN, starting at run FromRun (earlier runs already trained).
	// An empty ring selects full-shard extraction (replication off).
	RingStores  []string
	LiveStores  []string
	PrevLive    []string
	Replication int
	FromRun     int

	// MsgObjectPut / MsgObjects: replicated photo payloads, CRC32C-checked
	// end to end (producer computes, receiver verifies before storing).
	Objects []ObjectData

	// MsgScrubReport: objects the store's scrubber quarantined, awaiting a
	// refill from a healthy replica. The report's IDs list every object the
	// store can serve (quarantined ones excluded): the tuner's Reconcile
	// pass diffs both against ring placement, because a replica write that
	// failed at ingest leaves no bytes for any checksum to flag.
	Quarantined []uint64

	// MsgFeatures. Rows also carries the accepted-object count on the
	// MsgAck / MsgError reply to a MsgObjectPut; IDs also lists the wanted
	// objects on MsgObjectFetch and the inventory on MsgScrubReport.
	Run    int // which pipelined run this batch belongs to
	Rows   int
	Cols   int
	X      []Half // Rows×Cols row-major features, binary16; never non-finite
	Labels []int
	IDs    []uint64
	Final  bool // last batch of this run from this store (MsgObjects: last chunk)

	// MsgModelDelta / MsgLabels / MsgAck. MsgHello also carries ModelVersion:
	// the store's persisted model version (0 = cold start), so the Tuner can
	// ship a minimal catch-up delta instead of the full composite.
	Blob         []byte
	ModelVersion int
	LabelsOut    map[uint64]int
	// Rebase marks a catch-up delta computed against the deterministic
	// initial classifier rather than the receiver's current snapshot — sent
	// when the store's persisted version predates the Tuner's pruned history
	// floor.
	Rebase bool
	// DeltaEncoding negotiates the compressed delta codec (delta.Encoding as
	// uint8). On MsgHello it is the best encoding the store can decode; on
	// MsgModelDelta it names how Blob is encoded. Zero is the dense codec.
	DeltaEncoding uint8

	// MsgError
	Err string

	// MsgSpans: finished spans a PipeStore ships back so the Tuner's
	// collector can stitch the cross-node trace.
	Spans []telemetry.SpanRecord

	// MsgMetrics: the store's registry snapshot (dense histogram buckets so
	// the fleet aggregator can merge losslessly), piggy-backed on round
	// traffic like MsgSpans. MetricsSeq is the store's monotone shipment
	// counter — the aggregator drops stale or duplicate sequence numbers, so
	// retransmits cannot double-count.
	Metrics    []telemetry.MetricPoint
	MetricsSeq uint64

	// MsgWALAppend / MsgWALAck / MsgStandbyHello: the HA replication
	// channel. WALSeq is the shipment sequence number (the bootstrap seed is
	// 1, live records count up from there); an ack echoes the sequence it
	// covers. WALCRC is the CRC32C of Blob using the same polynomial as the
	// durable log's frame checksum, so a record is integrity-checked
	// end-to-end: leader disk → wire → standby disk. Boot marks Blob as a
	// full bootstrap seed rather than a single WAL record. On
	// MsgStandbyHello, ModelVersion and WALSeq carry the standby's last
	// applied version and sequence (informational).
	WALSeq uint64
	WALCRC uint32
	Boot   bool
}

// ObjectData is one photo object on the wire: the raw bytes and the
// uncompressed preprocessed encoding, each with its CRC32C. The receiver
// verifies both checksums before storing — a flip anywhere between the
// producer's disk and the receiver's memory is rejected, never persisted.
type ObjectData struct {
	ID     uint64
	Label  int
	Day    int
	Raw    []byte
	Pre    []byte // uncompressed preprocessed binary (core float encoding)
	RawCRC uint32
	PreCRC uint32
}

// TraceContext returns the message's trace context in telemetry form.
func (m *Message) TraceContext() telemetry.SpanContext {
	return telemetry.SpanContext{Trace: m.Trace, Span: m.Parent}
}

// SetTraceContext stamps the envelope with a trace context (no-op fields
// when tc is the zero value).
func (m *Message) SetTraceContext(tc telemetry.SpanContext) {
	m.Trace = tc.Trace
	m.Parent = tc.Span
}

// SendError is a convenience for reporting a failure to the peer. A nil err
// is reported as "unknown error" rather than panicking.
func (c *Codec) SendError(storeID string, err error) error {
	msg := "unknown error"
	if err != nil {
		msg = err.Error()
	}
	return c.Send(&Message{Type: MsgError, StoreID: storeID, Err: msg})
}
