// Package tuner implements the Tuner node: the training server that
// orchestrates a fleet of PipeStores (§5). It triggers FT-DMP fine-tuning,
// gathers the feature batches the stores extract near their data, trains
// the classifier run by run (pipelined: stores keep extracting run r+1
// while the Tuner trains on run r), distributes the resulting Check-N-Run
// delta, and drives offline inference to refresh the label database.
//
// At the paper's scale — tens of cheap st1-backed stores per Tuner —
// partial failure is the common case, so rounds run a quorum protocol
// (see round.go): a store that dies, stalls, or misbehaves mid-round is
// evicted and the round completes degraded on the survivors; evicted
// stores rejoin through the AddStore catch-up path.
package tuner

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ndpipe/internal/core"
	"ndpipe/internal/dataset"
	"ndpipe/internal/delta"
	"ndpipe/internal/ftdmp"
	"ndpipe/internal/labeldb"
	"ndpipe/internal/modelstore"
	"ndpipe/internal/nn"
	"ndpipe/internal/telemetry"
	"ndpipe/internal/wire"
)

// Node is the Tuner.
type Node struct {
	cfg      core.ModelConfig
	backbone *nn.Network

	// AcceptTimeout, when positive, bounds how long AcceptStores waits for
	// each PipeStore registration (the listener must support deadlines, as
	// *net.TCPListener does). Zero means wait forever.
	AcceptTimeout time.Duration

	mu      sync.Mutex
	clf     *nn.Network
	version int
	epoch   int               // round counter; stamps every request (staleness tag)
	rounds  RoundOptions      // quorum/timeout/retry policy, see SetRoundOptions
	archive *modelstore.Store // every released version, as a delta chain
	stores  []*storeConn
	db      *labeldb.DB

	// inbox is the single ordered stream of store events (messages and
	// disconnects). readLoop delivery is blocking — never dropped — so the
	// one disconnect signal of a dying store cannot be lost; the active
	// round drains the inbox and discards anything tagged with a stale
	// epoch.
	inbox     chan inbound
	done      chan struct{}
	closeOnce sync.Once

	// state is the crash-consistency layer (nil = in-memory only). Opened
	// by OpenState before rounds begin; every committed round journals to
	// its WAL before broadcast. See persist.go.
	state       *nodeState
	lastCatchUp CatchUpInfo

	// leaderEpoch is this tuner's leadership term, stamped on every
	// outbound message so stores can fence a deposed leader. Zero until
	// leadership is asserted (single-tuner deployments never assert and run
	// unfenced, exactly as before HA). Durable: recovered from the WAL by
	// OpenState, advanced only through AssertLeadership.
	leaderEpoch atomic.Uint64

	// repl, when set, ships every journaled WAL record to the hot standby
	// before the round proceeds (see journalRoundLocked's commit rule).
	// Guarded by mu.
	repl Replicator

	// Photo durability (S36), guarded by mu. replication is the placement
	// factor R (0 = replication off, legacy full-shard rounds); ringMembers
	// is the durable ring membership — every store that ever registered,
	// dead or alive, until a Reconcile pass retires one. Membership must
	// outlive liveness: ownership is "first LIVE replica on the ring", so a
	// dead member has to stay on the ring for its photos to keep resolving
	// to the survivors that actually hold them.
	replication int
	ringMembers []string

	// codecs holds the per-store delta compressors for stores that
	// negotiated a compressed wire encoding in their Hello. Keyed by store ID
	// and retained across evictions, so a store that rejoins at exactly the
	// version its compressor tracks resumes the lossy stream without a
	// rebase. The map is guarded by mu; each Compressor itself is only
	// touched from the round/AddStore paths, never concurrently.
	codecs map[string]*storeCodec

	rngMu sync.Mutex
	rng   backoffRNG

	// fleet is the tuner-side half of the fleet observability plane: it
	// merges the registry snapshots stores piggy-back on round traffic
	// (MsgMetrics) and serves the exact fleet rollup at /fleet.
	fleet *telemetry.FleetAggregator

	met tunerMetrics
	log *slog.Logger
}

// inbound is one event from a store's read loop: a decoded message, or the
// terminal error that ended the connection (msg == nil).
type inbound struct {
	sc  *storeConn
	msg *wire.Message
	err error
}

// storeCodec is the tuner's view of one compressed-encoding store: the
// error-feedback compressor (which tracks the exact snapshot the store has
// reconstructed from everything shipped) and the model version that shipped
// state corresponds to. A version mismatch on rejoin means the stream broke
// mid-flight (e.g. a send failed after Compress advanced the state) and the
// store must be rebased.
type storeCodec struct {
	comp    *delta.Compressor
	enc     delta.Encoding
	version int
}

type storeConn struct {
	id    string
	codec *wire.Codec
	conn  net.Conn
	// enc is the delta wire encoding negotiated in the store's Hello.
	enc delta.Encoding
	// lastRun tracks the highest pipelined run this store has finished
	// sending, so per-store extraction lag is visible while the Tuner
	// trains (run r trains while stores extract r+1).
	lastRun *telemetry.Gauge
	// lastSeen is the unix-nano arrival time of the store's most recent
	// message (including pongs); the heartbeat check evicts stores whose
	// silence exceeds RoundOptions.StoreTimeout.
	lastSeen atomic.Int64
	// evicted latches once the Tuner removes the store from the fleet, so
	// duplicate failure signals (read error racing a heartbeat timeout)
	// evict only once.
	evicted atomic.Bool
}

// touch records message arrival for the liveness check.
func (sc *storeConn) touch() { sc.lastSeen.Store(time.Now().UnixNano()) }

// silence returns how long the store has been quiet.
func (sc *storeConn) silence() time.Duration {
	return time.Duration(time.Now().UnixNano() - sc.lastSeen.Load())
}

// tunerMetrics holds the Tuner's instruments, registered once in New.
type tunerMetrics struct {
	stores         *telemetry.Gauge
	trainRounds    *telemetry.Counter
	degradedRounds *telemetry.Counter
	evictions      *telemetry.Counter
	retries        *telemetry.Counter
	pings          *telemetry.Counter
	staleMsgs      *telemetry.Counter
	imagesLost     *telemetry.Counter
	featureBytes   *telemetry.Counter
	deltaBytes     *telemetry.Counter
	modelVersion   *telemetry.Gauge
	runTrain       *telemetry.Histogram
	fineTune       *telemetry.Histogram
	offlineInfer   *telemetry.Histogram

	// Fleet observability: straggler flags and per-round resource cost.
	stragglersSeen *telemetry.Counter
	roundCPU       *telemetry.Gauge
	roundAllocB    *telemetry.Gauge
	roundAllocN    *telemetry.Gauge
}

func newTunerMetrics() tunerMetrics {
	reg := telemetry.Default
	return tunerMetrics{
		stores:         reg.Gauge("tuner_stores"),
		trainRounds:    reg.Counter("tuner_train_rounds_total"),
		degradedRounds: reg.Counter("tuner_degraded_rounds_total"),
		evictions:      reg.Counter("tuner_store_evictions_total"),
		retries:        reg.Counter("tuner_send_retries_total"),
		pings:          reg.Counter("tuner_pings_sent_total"),
		staleMsgs:      reg.Counter("tuner_stale_msgs_total"),
		imagesLost:     reg.Counter("tuner_images_lost_total"),
		featureBytes:   reg.Counter("tuner_feature_bytes_total"),
		deltaBytes:     reg.Counter("tuner_delta_broadcast_bytes_total"),
		modelVersion:   reg.Gauge("tuner_model_version"),
		runTrain:       reg.Histogram("tuner_run_train_seconds"),
		fineTune:       reg.Histogram("tuner_finetune_seconds"),
		offlineInfer:   reg.Histogram("tuner_offline_inference_seconds"),
		stragglersSeen: reg.Counter("tuner_stragglers_total"),
		roundCPU:       reg.Gauge("tuner_round_cpu_seconds"),
		roundAllocB:    reg.Gauge("tuner_round_alloc_bytes"),
		roundAllocN:    reg.Gauge("tuner_round_alloc_objects"),
	}
}

// New creates a Tuner with the deterministic model replicas for cfg and a
// fresh label database.
func New(cfg core.ModelConfig) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Node{
		cfg:      cfg,
		backbone: cfg.NewBackbone(),
		clf:      cfg.NewClassifier(),
		db:       labeldb.New(),
		rounds:   DefaultRoundOptions(),
		inbox:    make(chan inbound, 256),
		done:     make(chan struct{}),
		codecs:   make(map[string]*storeCodec),
		fleet:    telemetry.NewFleetAggregator(telemetry.Default),
		met:      newTunerMetrics(),
		log:      telemetry.ComponentLogger("tuner"),
	}
	t.rng = newBackoffRNG(0)
	t.archive = modelstore.New(t.clf.TakeSnapshot())
	return t, nil
}

// Replicator ships one durable WAL record to a hot standby and returns
// once the standby has acknowledged it as locally durable (or immediately
// when no standby is attached). It is called with the tuner's mutex held
// and must not call back into the tuner.
type Replicator interface {
	Replicate(record []byte) error
}

// SetReplicator attaches (or detaches, with nil) the WAL-shipping hook.
// Install it before rounds start.
func (t *Node) SetReplicator(r Replicator) {
	t.mu.Lock()
	t.repl = r
	t.mu.Unlock()
}

// LeaderEpoch returns the tuner's current leadership term (0 = unfenced).
func (t *Node) LeaderEpoch() uint64 { return t.leaderEpoch.Load() }

// AssertLeadership durably adopts a leadership term strictly above both the
// tuner's own recovered term and `above` (the highest term observed
// elsewhere — e.g. by a standby on its replication stream). The assertion
// is journaled before it takes effect, so a restarted leader can never
// come back with a term it already ceded. Returns the new term.
func (t *Node) AssertLeadership(above uint64) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.leaderEpoch.Load()
	if above > e {
		e = above
	}
	e++
	if t.state != nil {
		rec, err := encodeWAL(walRecord{Kind: walLeader, Version: t.version, Epoch: t.epoch, Leader: e})
		if err != nil {
			return 0, err
		}
		if err := t.state.wal.Append(rec); err != nil {
			return 0, fmt.Errorf("tuner: journaling leadership epoch %d: %w", e, err)
		}
		if t.repl != nil {
			if err := t.repl.Replicate(rec); err != nil {
				return 0, fmt.Errorf("tuner: replicating leadership epoch %d: %w", e, err)
			}
		}
	}
	t.leaderEpoch.Store(e)
	telemetry.Default.Flight().Record(telemetry.FlightTakeover, "tuner", "", int64(e), int64(t.version))
	t.log.Info("leadership asserted", slog.Uint64("leader_epoch", e), slog.Int("version", t.version))
	return e, nil
}

// Archive exposes the model-version store (read-only use).
func (t *Node) Archive() *modelstore.Store { return t.archive }

// Fleet returns the tuner's fleet aggregator — mount it at /fleet with
// telemetry.WithFleet to expose the merged fleet view.
func (t *Node) Fleet() *telemetry.FleetAggregator { return t.fleet }

// DB exposes the label database.
func (t *Node) DB() *labeldb.DB { return t.db }

// ModelVersion returns the current classifier version.
func (t *Node) ModelVersion() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// NumStores returns how many PipeStores are registered.
func (t *Node) NumStores() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.stores)
}

// Classifier returns the live classifier (callers must not train it
// concurrently with FineTune).
func (t *Node) Classifier() *nn.Network {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clf
}

// SetRoundOptions installs the fleet's fault-tolerance policy (quorum,
// per-store and per-phase timeouts, retry/backoff). Zero fields take the
// defaults; call before rounds start.
func (t *Node) SetRoundOptions(o RoundOptions) {
	o = o.WithDefaults()
	t.mu.Lock()
	t.rounds = o
	t.mu.Unlock()
	if o.Seed != 0 {
		t.rngMu.Lock()
		t.rng = newBackoffRNG(o.Seed)
		t.rngMu.Unlock()
	}
}

// RoundOptionsInEffect returns the active (defaulted) policy.
func (t *Node) RoundOptionsInEffect() RoundOptions {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rounds
}

// deadlineListener is implemented by listeners supporting accept deadlines
// (*net.TCPListener and friends).
type deadlineListener interface {
	SetDeadline(time.Time) error
}

// AcceptStores accepts exactly n PipeStore registrations on ln. With a
// positive AcceptTimeout and a deadline-capable listener, each registration
// must arrive within the timeout or AcceptStores returns an error instead of
// blocking forever on a store that never connects.
func (t *Node) AcceptStores(ln net.Listener, n int) error {
	dl, hasDeadline := ln.(deadlineListener)
	for i := 0; i < n; i++ {
		if t.AcceptTimeout > 0 && hasDeadline {
			if err := dl.SetDeadline(time.Now().Add(t.AcceptTimeout)); err != nil {
				return fmt.Errorf("tuner: setting accept deadline: %w", err)
			}
		}
		conn, err := ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return fmt.Errorf("tuner: no store registration within %v (%d of %d accepted): %w",
					t.AcceptTimeout, i, n, err)
			}
			return err
		}
		if t.AcceptTimeout > 0 && hasDeadline {
			// Clear the deadline so established connections are unaffected.
			if err := dl.SetDeadline(time.Time{}); err != nil {
				return fmt.Errorf("tuner: clearing accept deadline: %w", err)
			}
		}
		if err := t.AddStore(conn); err != nil {
			return err
		}
	}
	return nil
}

// AddStore registers a PipeStore connection (expects its Hello) and starts
// its reader. It is also the rejoin path: an evicted or restarted store
// reconnects here, receives one composite catch-up delta bringing its
// classifier to the current version, and is folded into the next round. A
// store that fails registration is refused: its connection is closed.
func (t *Node) AddStore(conn net.Conn) (err error) {
	defer func() {
		if err != nil {
			_ = conn.Close()
		}
	}()
	codec := wire.NewCodec(conn)
	hello, err := codec.Recv()
	if err != nil {
		if errors.Is(err, wire.ErrVersion) {
			t.log.Warn("store refused", slog.Any("err", err))
		}
		return fmt.Errorf("tuner: reading hello: %w", err)
	}
	if hello.Type != wire.MsgHello {
		return fmt.Errorf("tuner: expected hello, got %v", hello.Type)
	}
	enc := delta.Encoding(hello.DeltaEncoding)
	if !enc.Valid() {
		return fmt.Errorf("tuner: store %s advertised unknown delta encoding %d", hello.StoreID, hello.DeltaEncoding)
	}
	sc := &storeConn{
		id: hello.StoreID, codec: codec, conn: conn, enc: enc,
		lastRun: telemetry.Default.Gauge(telemetry.Labeled("tuner_store_last_run", "store", hello.StoreID)),
	}
	sc.lastRun.Set(-1)
	sc.touch()
	// Late joiner: bring the store's classifier to the current version
	// before it enters the fleet. The Hello carries the store's persisted
	// version (0 for a cold store), so a restarted store
	// gets only the delta for the rounds it missed — or nothing, if its
	// state is already current — instead of the full composite from v0.
	blob, to, rebase, err := t.catchUpFor(sc.id, enc, hello.ModelVersion)
	if err != nil {
		return fmt.Errorf("tuner: catch-up for %s: %w", sc.id, err)
	}
	t.mu.Lock()
	t.lastCatchUp = CatchUpInfo{StoreID: sc.id, From: hello.ModelVersion, To: to,
		Bytes: len(blob), Rebase: rebase, Encoding: enc.String()}
	t.mu.Unlock()
	telemetry.Default.Flight().Record(telemetry.FlightCatchUp, "tuner", sc.id, int64(to), int64(len(blob)))
	if blob != nil {
		if err := codec.Send(&wire.Message{Type: wire.MsgModelDelta, Blob: blob, ModelVersion: to,
			Rebase: rebase, LeaderEpoch: t.leaderEpoch.Load()}); err != nil {
			return fmt.Errorf("tuner: sending catch-up to %s: %w", sc.id, err)
		}
		ack, err := codec.Recv()
		// The store may piggy-back span or metrics shipments around the ack;
		// absorb them into their sinks rather than failing the catch-up.
		for err == nil && (ack.Type == wire.MsgSpans || ack.Type == wire.MsgMetrics) {
			switch ack.Type {
			case wire.MsgSpans:
				telemetry.Default.Traces().Add(ack.Spans...)
			case wire.MsgMetrics:
				t.fleet.Ship(sc.id, ack.MetricsSeq, ack.Metrics)
			}
			ack, err = codec.Recv()
		}
		if err != nil || ack.Type != wire.MsgAck {
			return fmt.Errorf("tuner: catch-up ack from %s: %v (err %v)", sc.id, ack, err)
		}
		sc.touch()
	}
	t.mu.Lock()
	t.stores = append(t.stores, sc)
	nstores := len(t.stores)
	t.met.stores.Set(float64(nstores))
	// Ring membership accumulates registrations and survives evictions; a
	// rejoining store is already a member.
	member := false
	for _, m := range t.ringMembers {
		if m == sc.id {
			member = true
			break
		}
	}
	if !member {
		t.ringMembers = append(t.ringMembers, sc.id)
	}
	t.mu.Unlock()
	t.log.Info("store registered", slog.String("store", sc.id), slog.Int("fleet", nstores))
	go t.readLoop(sc)
	return nil
}

// readLoop routes a store's messages into the Tuner's inbox. Pongs and
// span shipments are absorbed here (they only feed liveness and the trace
// collector); everything else — including the terminal disconnect error —
// is delivered losslessly to the active round.
func (t *Node) readLoop(sc *storeConn) {
	for {
		msg, err := sc.codec.Recv()
		if err != nil {
			t.log.Debug("store disconnected", slog.String("store", sc.id), slog.Any("err", err))
			t.deliver(inbound{sc: sc, err: fmt.Errorf("tuner: store %s disconnected: %w", sc.id, err)})
			return
		}
		sc.touch()
		switch msg.Type {
		case wire.MsgSpans:
			// The store's half of a distributed trace: stitch it into the
			// collector, where it joins the Tuner's own spans for the round.
			telemetry.Default.Traces().Add(msg.Spans...)
			continue
		case wire.MsgPong:
			// Liveness only; touch above already recorded it.
			continue
		case wire.MsgMetrics:
			// The store's registry snapshot for the fleet aggregator. The
			// shipment sequence number dedups retransmits and reordering.
			t.fleet.Ship(sc.id, msg.MetricsSeq, msg.Metrics)
			continue
		case wire.MsgFeatures:
			if msg.Final {
				sc.lastRun.Set(float64(msg.Run))
			}
		}
		t.deliver(inbound{sc: sc, msg: msg})
	}
}

// deliver blocks until the event is consumed (or the Tuner shuts down):
// the disconnect signal of a dying store must never be dropped on the
// floor, or a round would stall until its timeout instead of reacting.
func (t *Node) deliver(ev inbound) {
	select {
	case t.inbox <- ev:
	case <-t.done:
	}
}

// evict removes a store from the fleet and closes its connection. It is
// idempotent (the first caller wins) and reports whether this call did the
// eviction.
func (t *Node) evict(sc *storeConn, reason error, span *telemetry.Span) bool {
	if !sc.evicted.CompareAndSwap(false, true) {
		return false
	}
	_ = sc.conn.Close()
	t.mu.Lock()
	for i, s := range t.stores {
		if s == sc {
			t.stores = append(t.stores[:i], t.stores[i+1:]...)
			break
		}
	}
	nstores := len(t.stores)
	t.mu.Unlock()
	t.met.stores.Set(float64(nstores))
	t.met.evictions.Inc()
	telemetry.Default.Flight().Record(telemetry.FlightEvict, "tuner", sc.id, 0, 0)
	span.Event("evicted " + sc.id)
	t.log.Warn("store evicted",
		slog.String("store", sc.id),
		slog.Int("fleet", nstores),
		slog.Any("reason", reason))
	return true
}

// Report summarizes one fine-tuning round.
type Report struct {
	Trace        telemetry.TraceID // the round's distributed trace (see /traces)
	Images       int
	Runs         int
	Epochs       int
	WallTime     time.Duration
	FeatureBytes int64  // feature payload gathered over the network
	DeltaBytes   int64  // Check-N-Run broadcast size (per store)
	DeltaBlob    []byte // the broadcast itself (for further distribution,
	// e.g. to the online inference server)
	FullModelBytes int64 // what shipping whole models would have cost (per store)
	ModelVersion   int

	// Degraded-round accounting: the round committed without the full
	// fleet. FailedStores lists the stores evicted during the round (sorted),
	// ImagesLost counts feature rows they had contributed to runs that had
	// not been trained yet (discarded rather than half-trained).
	Degraded     bool
	FailedStores []string
	ImagesLost   int
	Participants int // stores that entered the round

	// Straggler detection: per-store, per-phase latencies for the round and
	// the stores flagged by the median+MAD rule (telemetry.FlagStragglers),
	// also exported as ndpipe_straggler{store=...} gauges.
	StoreStats map[string]StoreRoundStats
	Stragglers []string

	// Per-round resource accounting: the tuner process's CPU and allocation
	// cost of the round, plus total wire traffic during it.
	Resources    telemetry.ResourceDelta
	WireBytesIn  int64
	WireBytesOut int64
}

// StoreRoundStats is one store's observable cost within a round.
type StoreRoundStats struct {
	GatherSeconds float64 // request sent → last run's final feature batch
	AckSeconds    float64 // delta broadcast → ack received
	FeatureBytes  int64   // feature payload this store contributed
	Straggler     bool
}

// TrafficReduction is the Check-N-Run win for this round.
func (r Report) TrafficReduction() float64 {
	if r.DeltaBytes == 0 {
		return 0
	}
	return float64(r.FullModelBytes) / float64(r.DeltaBytes)
}

// trainOneRun trains the classifier to the paper's convergence criterion on
// one run's features and returns the epochs used.
func trainOneRun(clf *nn.Network, b *dataset.Batch, opt ftdmp.TrainOptions) (int, error) {
	stats, err := ftdmp.FineTuneRuns(clf, []*dataset.Batch{b}, opt)
	if err != nil {
		return 0, err
	}
	return stats.TotalEpochs, nil
}

// Evaluate measures the current model's top-1/top-k accuracy on raw-input
// test data (backbone + classifier).
func (t *Node) Evaluate(test *dataset.Batch, k int) (top1, topK float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	full := nn.Stack(t.backbone, t.clf)
	return nn.Accuracy(full, test.X, test.Labels, k)
}

// CatchUpInfo records the most recent AddStore catch-up — what the tuner
// shipped to bring a (re)joining store current. Bytes is 0 when the store's
// persisted version was already the latest (nothing sent).
type CatchUpInfo struct {
	StoreID string
	From    int
	To      int
	Bytes   int
	Rebase  bool
	// Encoding is the delta wire codec the store negotiated for subsequent
	// broadcasts ("dense", "topk", "int8"). The catch-up blob itself is
	// always dense — it must land the store on an exact snapshot.
	Encoding string
}

// LastCatchUp returns the most recent AddStore catch-up record.
func (t *Node) LastCatchUp() CatchUpInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastCatchUp
}

// catchUpFrom builds the minimal delta upgrading a store from the claimed
// version to the latest. A nil blob means the store is already current.
// Versions outside the archive's reconstructible range — hostile claims, or
// honest ones that predate a compaction's prune floor — fall back to a
// rebase delta: a diff from the deterministic initial classifier (which
// every store can reconstruct from cfg) to the latest snapshot.
func (t *Node) catchUpFrom(from int) (blob []byte, to int, rebase bool, err error) {
	latest := t.archive.Latest()
	if from == latest {
		return nil, latest, false, nil
	}
	if from >= t.archive.Oldest() && from < latest {
		blob, to, err = t.archive.CatchUp(from)
		return blob, to, false, err
	}
	end, err := t.archive.Snapshot(latest)
	if err != nil {
		return nil, 0, false, err
	}
	d, err := delta.Diff(t.cfg.NewClassifier().TakeSnapshot(), end, 0)
	if err != nil {
		return nil, 0, false, err
	}
	blob, err = d.Encode()
	if err != nil {
		return nil, 0, false, err
	}
	return blob, latest, true, nil
}

// catchUpFor is the encoding-aware catch-up: dense stores take the plain
// catchUpFrom path; compressed-encoding stores get their error-feedback
// compressor resumed or rebuilt. A compressed store's additive stream only
// makes sense against the exact state its compressor tracks, so unless the
// store rejoins at precisely that state (same version on both sides), it is
// rebased: one dense delta to the exact latest snapshot, and a fresh
// compressor based there.
func (t *Node) catchUpFor(storeID string, enc delta.Encoding, from int) (blob []byte, to int, rebase bool, err error) {
	if enc == delta.EncodingDense {
		return t.catchUpFrom(from)
	}
	latest := t.archive.Latest()
	t.mu.Lock()
	cs := t.codecs[storeID]
	t.mu.Unlock()
	if cs != nil && cs.enc == enc && cs.version == latest && from == latest {
		// The store holds exactly the (lossy) state the compressor tracks:
		// resume the stream, nothing to ship.
		return nil, latest, false, nil
	}
	var base nn.Snapshot
	if cs == nil && from == 0 && latest == 0 {
		// Fresh store before any round: its state is the deterministic
		// initial classifier, exact by construction. Start the stream there.
		base = t.cfg.NewClassifier().TakeSnapshot()
	} else {
		// Rebase: a dense assign-delta lands the store on the exact latest
		// snapshot regardless of what lossy state it holds, and the new
		// compressor starts from that known-exact base.
		end, err := t.archive.Snapshot(latest)
		if err != nil {
			return nil, 0, false, err
		}
		d, err := delta.Diff(t.cfg.NewClassifier().TakeSnapshot(), end, 0)
		if err != nil {
			return nil, 0, false, err
		}
		blob, err = d.Encode()
		if err != nil {
			return nil, 0, false, err
		}
		base = end
		rebase = true
	}
	comp, err := delta.NewCompressor(enc, base)
	if err != nil {
		return nil, 0, false, err
	}
	t.mu.Lock()
	t.codecs[storeID] = &storeCodec{comp: comp, enc: enc, version: latest}
	t.mu.Unlock()
	return blob, latest, rebase, nil
}

// encodeDeltaFor picks a store's wire form of the freshly committed version:
// the shared dense blob for dense stores, or the store's compressed
// error-feedback stream. Compress advances the tracked shipped state, so a
// send that fails after this call leaves cs.version ahead of the store's
// real version — exactly the mismatch catchUpFor detects on rejoin, which
// forces a rebase instead of a corrupting additive apply.
func (t *Node) encodeDeltaFor(sc *storeConn, target nn.Snapshot, version int, dense []byte) ([]byte, delta.Encoding, error) {
	if sc.enc == delta.EncodingDense {
		return dense, delta.EncodingDense, nil
	}
	t.mu.Lock()
	cs := t.codecs[sc.id]
	t.mu.Unlock()
	if cs == nil || cs.enc != sc.enc {
		return nil, 0, fmt.Errorf("tuner: store %s negotiated %v but has no tracked compressor", sc.id, sc.enc)
	}
	blob, err := cs.comp.Compress(target)
	if err != nil {
		return nil, 0, err
	}
	cs.version = version
	return blob, sc.enc, nil
}

// deltaBytesByEnc is the per-encoding broadcast byte counter
// (ndpipe_delta_bytes_total{encoding=...}).
func deltaBytesByEnc(enc delta.Encoding) *telemetry.Counter {
	return telemetry.Default.Counter(telemetry.Labeled("ndpipe_delta_bytes_total", "encoding", enc.String()))
}

// Close disconnects all stores and releases the state handles.
func (t *Node) Close() {
	t.closeOnce.Do(func() { close(t.done) })
	t.closeState()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sc := range t.stores {
		_ = sc.conn.Close()
	}
	t.stores = nil
	t.met.stores.Set(0)
}
