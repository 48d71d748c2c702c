// Round protocol: quorum-based fault tolerance for FT-DMP rounds.
//
// Every FineTune / OfflineInference invocation is one *round*, stamped
// with a monotonically increasing epoch that tags every request and is
// echoed by the stores, so anything buffered from an earlier (possibly
// failed) round is detectably stale. Within a round each participating
// store runs a small state machine: live → (suspect on silence, pinged) →
// failed (evicted from the fleet). A store that disconnects, reports an
// error, violates the protocol, or stays silent past StoreTimeout is
// evicted; its contributions to not-yet-trained runs are discarded and the
// round completes on the surviving quorum — a hard error is returned only
// when fewer than Quorum stores survive a phase. Evicted stores rejoin
// through Node.AddStore (the catch-up-delta path) and are folded into the
// next round.
package tuner

import (
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ndpipe/internal/dataset"
	"ndpipe/internal/ftdmp"
	"ndpipe/internal/labeldb"
	"ndpipe/internal/telemetry"
	"ndpipe/internal/tensor"
	"ndpipe/internal/wire"
)

// RoundOptions is the fleet fault-tolerance policy.
type RoundOptions struct {
	// Quorum is the minimum number of stores that must survive (and, for
	// fine-tuning, contribute) for a round to commit. Below it the round
	// returns a hard error. Zero defaults to 1: at the paper's scale a
	// round on any surviving subset beats restarting.
	Quorum int
	// StoreTimeout bounds per-store silence. A store that has sent nothing
	// for longer (despite a heartbeat ping at half the budget) is declared
	// dead and evicted. Also used as the per-store send deadline.
	StoreTimeout time.Duration
	// RoundTimeout bounds each phase of a round (feature gather, delta
	// ack collection, label collection) with its own timer.
	RoundTimeout time.Duration
	// MaxRetries caps re-attempts of a failed per-store send. Zero means
	// the default (3); use -1 to disable retries.
	MaxRetries int
	// Backoff is the base delay between retries, doubled per attempt up to
	// BackoffCap, with uniform jitter in [0.5×, 1.5×) drawn from the
	// seeded source.
	Backoff    time.Duration
	BackoffCap time.Duration
	// Seed fixes the jitter RNG for deterministic chaos runs (0 = entropy).
	Seed int64
}

// DefaultRoundOptions returns the production policy.
func DefaultRoundOptions() RoundOptions {
	return RoundOptions{
		Quorum:       1,
		StoreTimeout: 30 * time.Second,
		RoundTimeout: 5 * time.Minute,
		MaxRetries:   3,
		Backoff:      50 * time.Millisecond,
		BackoffCap:   2 * time.Second,
	}
}

// WithDefaults fills zero fields with the defaults.
func (o RoundOptions) WithDefaults() RoundOptions {
	d := DefaultRoundOptions()
	if o.Quorum <= 0 {
		o.Quorum = d.Quorum
	}
	if o.StoreTimeout <= 0 {
		o.StoreTimeout = d.StoreTimeout
	}
	if o.RoundTimeout <= 0 {
		o.RoundTimeout = d.RoundTimeout
	}
	switch {
	case o.MaxRetries == 0:
		o.MaxRetries = d.MaxRetries
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = d.Backoff
	}
	if o.BackoffCap < o.Backoff {
		o.BackoffCap = d.BackoffCap
	}
	return o
}

// heartbeatInterval is how often a round checks store liveness.
func heartbeatInterval(o RoundOptions) time.Duration {
	hb := o.StoreTimeout / 4
	if hb < 5*time.Millisecond {
		hb = 5 * time.Millisecond
	}
	if hb > time.Second {
		hb = time.Second
	}
	return hb
}

// backoffRNG is the seeded jitter source (guarded by Node.rngMu).
type backoffRNG = *rand.Rand

func newBackoffRNG(seed int64) backoffRNG {
	if seed == 0 {
		var s int64
		// Draw entropy from the global source rather than the clock so two
		// Tuners started in the same nanosecond still diverge.
		s = rand.Int63()
		if s == 0 {
			s = 1
		}
		seed = s
	}
	return rand.New(rand.NewSource(seed))
}

func (t *Node) randFloat() float64 {
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	return t.rng.Float64()
}

// backoff returns the capped, jittered exponential delay before retry
// `attempt` (0-based).
func (t *Node) backoff(o RoundOptions, attempt int) time.Duration {
	d := o.Backoff
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= o.BackoffCap {
			d = o.BackoffCap
			break
		}
	}
	// Full jitter around the midpoint: [0.5d, 1.5d).
	return d/2 + time.Duration(t.randFloat()*float64(d))
}

// sendWithDeadline writes one message with a per-store write deadline, so
// a stalled peer cannot wedge the round inside a blocking send. Every
// message is stamped with the tuner's leadership term on the way out —
// this is the fencing signal stores use to reject a deposed leader.
func (t *Node) sendWithDeadline(sc *storeConn, msg *wire.Message, d time.Duration) error {
	msg.LeaderEpoch = t.leaderEpoch.Load()
	if d > 0 {
		_ = sc.conn.SetWriteDeadline(time.Now().Add(d))
		defer sc.conn.SetWriteDeadline(time.Time{})
	}
	return sc.codec.Send(msg)
}

// storeRunBuf accumulates one store's feature batches for one run. finals
// counts Final markers received: under ring routing a re-sent (degraded)
// request makes every survivor owe a second Final per not-yet-trained run,
// so completion is a count, not a flag.
type storeRunBuf struct {
	rows   []float64
	labels []int
	ids    []uint64
	finals int
}

// roundCtx is the per-round state machine over the participating stores.
type roundCtx struct {
	t     *Node
	o     RoundOptions
	epoch int

	span   *telemetry.Span
	logger *slog.Logger

	participants []*storeConn        // round entrants, in registration order
	live         map[*storeConn]bool // still healthy this round
	failed       map[string]error    // storeID → why it left the round

	// Feature-gather state (FineTune only): per-run, per-store buffers plus
	// the next run to train, so a failing store's not-yet-trained
	// contributions can be discarded and accounted.
	ftBufs     []map[string]*storeRunBuf
	nextRun    int
	imagesLost int

	// Ring-routing state (replication enabled; see durability.go). ring is
	// the full membership stamped on every request — dead members stay in it
	// so ownership math is stable — and curLive is the live set carried by
	// the most recent train request; when rc.live shrinks below it, the
	// round re-sends the request so survivors pick up the dead store's
	// photos (reextract). extraFinals[r] counts re-sent requests covering
	// run r: each one makes every live store owe one more Final for r.
	ring        []string
	replication int
	curLive     []string
	extraFinals []int
	// Exactly-once training under re-extraction: seen holds every image ID
	// already trained this round (re-extracted duplicates of already-trained
	// rows are dropped), orphans holds IDs buffered from a failed store and
	// discarded — drained as survivors re-deliver them. What remains at
	// commit is genuinely lost.
	seen    map[uint64]bool
	orphans map[uint64]bool

	// Straggler accounting: per-store phase latencies measured against the
	// shared phase start, so one slow store stands out of the fleet median.
	stats       map[string]*StoreRoundStats
	gatherStart time.Time
	ackStart    time.Time
}

// stat returns (creating) a store's per-round accounting slot.
func (rc *roundCtx) stat(id string) *StoreRoundStats {
	st := rc.stats[id]
	if st == nil {
		st = &StoreRoundStats{}
		rc.stats[id] = st
	}
	return st
}

// beginRound stamps a fresh epoch, snapshots the fleet as this round's
// participants and verifies the quorum is reachable at all.
func (t *Node) beginRound(span *telemetry.Span, logger *slog.Logger) (*roundCtx, error) {
	t.mu.Lock()
	t.epoch++
	rc := &roundCtx{
		t:            t,
		o:            t.rounds,
		epoch:        t.epoch,
		span:         span,
		logger:       logger,
		participants: append([]*storeConn(nil), t.stores...),
		live:         make(map[*storeConn]bool),
		failed:       make(map[string]error),
		stats:        make(map[string]*StoreRoundStats),
		replication:  t.replication,
	}
	if rc.replication > 0 {
		// Legacy rounds (replication off) must not carry a ring: stores would
		// take the ownership path over data that was never ring-placed.
		rc.ring = append([]string(nil), t.ringMembers...)
	}
	t.mu.Unlock()
	if rc.ringMode() {
		for _, sc := range rc.participants {
			rc.curLive = append(rc.curLive, sc.id)
		}
		rc.seen = make(map[uint64]bool)
		rc.orphans = make(map[uint64]bool)
	}
	span.SetAttr("epoch", fmt.Sprint(rc.epoch))
	telemetry.Default.Flight().Record(telemetry.FlightRoundStart, "tuner", "",
		int64(rc.epoch), int64(len(rc.participants)))
	if len(rc.participants) == 0 {
		return nil, fmt.Errorf("tuner: no PipeStores registered")
	}
	for _, sc := range rc.participants {
		rc.live[sc] = true
	}
	if len(rc.live) < rc.o.Quorum {
		return nil, fmt.Errorf("tuner: %d stores registered, below quorum %d", len(rc.participants), rc.o.Quorum)
	}
	return rc, nil
}

// fail takes a store out of the round (and the fleet). Duplicate signals
// for the same store are no-ops.
func (rc *roundCtx) fail(sc *storeConn, err error) {
	rc.t.evict(sc, err, rc.span)
	if !rc.live[sc] {
		return // not (or no longer) part of this round
	}
	delete(rc.live, sc)
	if rc.failed[sc.id] == nil {
		rc.failed[sc.id] = err
	}
	rc.discardPending(sc.id)
	rc.logger.Warn("store failed mid-round",
		slog.String("store", sc.id),
		slog.Int("live", len(rc.live)),
		slog.Any("err", err))
}

// adopt folds a store that joined the fleet mid-round (via AddStore) into
// the round for the delta phase, so its ack is awaited and its liveness
// checked like everyone else's.
func (rc *roundCtx) adopt(sc *storeConn) {
	if rc.live[sc] || rc.failed[sc.id] != nil || sc.evicted.Load() {
		return
	}
	rc.participants = append(rc.participants, sc)
	rc.live[sc] = true
}

// ringMode reports whether this round runs under replicated placement.
func (rc *roundCtx) ringMode() bool { return rc.replication > 0 && len(rc.ring) > 0 }

// discardPending drops a failed store's contributions to runs that have
// not been trained yet: a half-gathered run must not train on a partial
// shard without accounting for it. Under ring routing the discarded rows
// are not written off — their IDs become orphans, reclaimed as survivors
// re-deliver them, and only what is never reclaimed counts as lost.
func (rc *roundCtx) discardPending(storeID string) {
	for r := rc.nextRun; r < len(rc.ftBufs); r++ {
		if b := rc.ftBufs[r][storeID]; b != nil {
			if rc.ringMode() {
				for _, id := range b.ids {
					if !rc.seen[id] {
						rc.orphans[id] = true
					}
				}
			} else {
				rc.imagesLost += len(b.labels)
			}
			delete(rc.ftBufs[r], storeID)
		}
	}
}

// handle routes one inbox event: terminal errors and MsgError fail the
// store, stale-epoch messages are counted and dropped, and everything else
// goes to the phase's accept function.
func (rc *roundCtx) handle(ev inbound, accept func(*storeConn, *wire.Message)) {
	if ev.err != nil {
		rc.fail(ev.sc, ev.err)
		return
	}
	msg := ev.msg
	if msg.Epoch != 0 && msg.Epoch != rc.epoch {
		rc.t.met.staleMsgs.Inc()
		return
	}
	if msg.Type == wire.MsgError {
		rc.fail(ev.sc, fmt.Errorf("tuner: store %s: %s", ev.sc.id, msg.Err))
		return
	}
	accept(ev.sc, msg)
}

// checkLiveness pings quiet stores and fails silent ones. pending filters
// which live stores the current phase is still waiting on (nil = all).
func (rc *roundCtx) checkLiveness(pending func(*storeConn) bool) {
	var cands []*storeConn
	for sc := range rc.live {
		if pending == nil || pending(sc) {
			cands = append(cands, sc)
		}
	}
	for _, sc := range cands {
		silent := sc.silence()
		switch {
		case silent > rc.o.StoreTimeout:
			rc.fail(sc, fmt.Errorf("tuner: store %s silent for %v (store timeout %v)",
				sc.id, silent.Round(time.Millisecond), rc.o.StoreTimeout))
		case silent > rc.o.StoreTimeout/2:
			// Suspect: probe it. A pong (or any message) resets the clock.
			ping := &wire.Message{Type: wire.MsgPing, Epoch: rc.epoch}
			if err := rc.t.sendWithDeadline(sc, ping, rc.o.StoreTimeout); err != nil {
				rc.fail(sc, fmt.Errorf("tuner: ping to store %s: %w", sc.id, err))
				continue
			}
			rc.t.met.pings.Inc()
		}
	}
}

// sendWithRetry sends with per-store deadlines and capped exponential
// backoff with jitter between attempts.
func (rc *roundCtx) sendWithRetry(sc *storeConn, msg *wire.Message) error {
	var err error
	for attempt := 0; attempt <= rc.o.MaxRetries; attempt++ {
		if attempt > 0 {
			rc.t.met.retries.Inc()
			telemetry.Default.Flight().Record(telemetry.FlightRetry, "tuner", sc.id, int64(attempt), int64(rc.epoch))
			time.Sleep(rc.t.backoff(rc.o, attempt-1))
		}
		if err = rc.t.sendWithDeadline(sc, msg, rc.o.StoreTimeout); err == nil {
			return nil
		}
	}
	return fmt.Errorf("tuner: send %v to store %s failed after %d attempts: %w",
		msg.Type, sc.id, rc.o.MaxRetries+1, err)
}

// quorumError is the hard failure: fewer than Quorum stores survive. It
// names every casualty and its reason, so the one real root cause (a
// disconnect, a store-side error) is in the message.
func (rc *roundCtx) quorumError(phase string) error {
	ids := make([]string, 0, len(rc.failed))
	for id := range rc.failed {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s: %v", id, rc.failed[id])
	}
	telemetry.Default.Flight().Record(telemetry.FlightRoundAbort, "tuner", phase, int64(rc.epoch), int64(len(rc.live)))
	return fmt.Errorf("tuner: round %d aborted while %s: %d live stores, quorum %d; failed: [%s]",
		rc.epoch, phase, len(rc.live), rc.o.Quorum, b.String())
}

// failedSorted lists the round's casualties for the Report.
func (rc *roundCtx) failedSorted() []string {
	if len(rc.failed) == 0 {
		return nil
	}
	ids := make([]string, 0, len(rc.failed))
	for id := range rc.failed {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// finishAccounting stamps the degraded-round outcome into the report and
// the metrics.
func (rc *roundCtx) finishAccounting(rep *Report) {
	rep.Participants = len(rc.participants)
	rep.FailedStores = rc.failedSorted()
	rep.Degraded = len(rc.failed) > 0
	if rc.ringMode() {
		// Under replication, lost = buffered-then-discarded rows never
		// re-delivered by a survivor. With R ≥ 2 and any live replica per
		// photo, reroute drains the orphan set and this is zero.
		rc.imagesLost = len(rc.orphans)
	}
	rep.ImagesLost = rc.imagesLost
	if rep.Degraded {
		rc.t.met.degradedRounds.Inc()
		rc.t.met.imagesLost.Add(int64(rc.imagesLost))
		rc.span.SetAttr("degraded", "true")
	}
}

// flagStragglers applies the median+MAD rule to the round's per-store phase
// latencies: the gather phase (request → last final feature batch) and the
// ack phase (delta broadcast → ack) are judged independently, and a store
// flagged in either is a straggler. Flags land in the report, in the
// ndpipe_straggler{store=...} gauges (1 flagged / 0 clear, refreshed every
// round) and in structured log + flight-recorder events.
func (rc *roundCtx) flagStragglers(rep *Report) {
	gather := make(map[string]float64, len(rc.stats))
	ack := make(map[string]float64, len(rc.stats))
	for id, st := range rc.stats {
		if st.GatherSeconds > 0 {
			gather[id] = st.GatherSeconds
		}
		if st.AckSeconds > 0 {
			ack[id] = st.AckSeconds
		}
	}
	flagged := make(map[string]bool)
	for _, id := range telemetry.FlagStragglers(gather, 0) {
		flagged[id] = true
	}
	for _, id := range telemetry.FlagStragglers(ack, 0) {
		flagged[id] = true
	}
	rep.StoreStats = make(map[string]StoreRoundStats, len(rc.stats))
	for id, st := range rc.stats {
		st.Straggler = flagged[id]
		rep.StoreStats[id] = *st
		v := 0.0
		if st.Straggler {
			v = 1
		}
		telemetry.Default.Gauge(telemetry.Labeled("ndpipe_straggler", "store", id)).Set(v)
	}
	if len(flagged) == 0 {
		return
	}
	rep.Stragglers = make([]string, 0, len(flagged))
	for id := range flagged {
		rep.Stragglers = append(rep.Stragglers, id)
	}
	sort.Strings(rep.Stragglers)
	for _, id := range rep.Stragglers {
		rc.t.met.stragglersSeen.Inc()
		telemetry.Default.Flight().Record(telemetry.FlightStraggler, "tuner", id, int64(rc.epoch), 0)
		st := rc.stats[id]
		rc.logger.Warn("straggler detected",
			slog.String("store", id),
			slog.Int("epoch", rc.epoch),
			slog.Float64("gather_seconds", st.GatherSeconds),
			slog.Float64("ack_seconds", st.AckSeconds))
	}
}

// runComplete reports whether every live store has finished sending run r:
// one Final per request covering the run — the original, plus one per
// re-sent (degraded) request under ring routing.
func (rc *roundCtx) runComplete(r int) bool {
	want := 1
	if rc.extraFinals != nil {
		want += rc.extraFinals[r]
	}
	for sc := range rc.live {
		b := rc.ftBufs[r][sc.id]
		if b == nil || b.finals < want {
			return false
		}
	}
	return true
}

// liveIDs returns the current live set in participant order.
func (rc *roundCtx) liveIDs() []string {
	ids := make([]string, 0, len(rc.live))
	for _, sc := range rc.participants {
		if rc.live[sc] {
			ids = append(ids, sc.id)
		}
	}
	return ids
}

// reextract is the zero-loss reroute: a store died during the gather, so
// the round re-sends its train request to every survivor with the shrunken
// live set. Each survivor extracts the photos it owns now but did not own
// under PrevLive — exactly the dead store's photos, rerouted to their next
// live replica — partitioned over the runs not yet trained. Every re-sent
// request makes every live store owe one more Final for those runs.
func (rc *roundCtx) reextract(tc telemetry.SpanContext, nrun, batch int) {
	newLive := rc.liveIDs()
	prev := rc.curLive
	from := rc.nextRun
	rc.curLive = newLive
	for r := from; r < nrun; r++ {
		rc.extraFinals[r]++
	}
	telemetry.Default.Flight().Record(telemetry.FlightReroute, "tuner", "", int64(rc.epoch), int64(from))
	rc.span.Event(fmt.Sprintf("reroute from run %d to %d survivors", from, len(newLive)))
	rc.logger.Warn("re-extracting dead store's photos on survivors",
		slog.Int("epoch", rc.epoch), slog.Int("from_run", from), slog.Int("survivors", len(newLive)))
	for _, sc := range rc.participants {
		if !rc.live[sc] {
			continue
		}
		req := &wire.Message{Type: wire.MsgTrainRequest, Runs: nrun, BatchSize: batch, Epoch: rc.epoch,
			RingStores: rc.ring, LiveStores: newLive, PrevLive: prev,
			Replication: rc.replication, FromRun: from}
		req.SetTraceContext(tc)
		if err := rc.sendWithRetry(sc, req); err != nil {
			rc.fail(sc, fmt.Errorf("tuner: re-sending train request to %s: %w", sc.id, err))
		}
	}
}

// FineTune runs one pipelined FT-DMP round over all registered stores and
// distributes the resulting model delta. Stores extract nrun sub-shards;
// the Tuner trains on run r as soon as every store finished sending it.
// The round runs under a fresh distributed trace (see FineTuneTraced).
func (t *Node) FineTune(nrun, batch int, opt ftdmp.TrainOptions) (Report, error) {
	return t.FineTuneTraced(telemetry.SpanContext{}, nrun, batch, opt)
}

// FineTuneTraced is FineTune inside a caller-provided trace context (an
// empty context mints a fresh trace). The round span parents both the
// Tuner's local train-run spans and — via the trace context carried in
// every MsgTrainRequest/MsgModelDelta envelope — the remote extraction and
// delta-apply spans each PipeStore records and ships back, so /traces
// shows the full Fig-6 decomposition of the round.
//
// The round tolerates partial failure: stores that die, stall past
// StoreTimeout, or misbehave are evicted and the round commits on the
// surviving quorum with Report.Degraded accounting. Only when fewer than
// RoundOptions.Quorum stores survive does it return an error.
func (t *Node) FineTuneTraced(parent telemetry.SpanContext, nrun, batch int, opt ftdmp.TrainOptions) (Report, error) {
	start := time.Now()
	res0 := telemetry.SampleResources()
	wireIn0 := telemetry.Default.Counter("wire_recv_bytes_total").Value()
	wireOut0 := telemetry.Default.Counter("wire_sent_bytes_total").Value()
	span := telemetry.Default.Spans().StartSpanIn(parent, "tuner.finetune")
	span.SetAttr("nrun", fmt.Sprint(nrun))
	tc := span.Context()
	logger := t.log.With(telemetry.TraceAttrs(tc)...)
	defer func() {
		t.met.fineTune.Observe(span.End().Seconds())
	}()
	if nrun < 1 {
		nrun = 1
	}
	t.mu.Lock()
	clf := t.clf
	t.mu.Unlock()

	rc, err := t.beginRound(span, logger)
	if err != nil {
		return Report{}, err
	}
	rc.gatherStart = time.Now()
	if rc.ringMode() {
		rc.extraFinals = make([]int, nrun)
	}
	for _, sc := range rc.participants {
		req := &wire.Message{Type: wire.MsgTrainRequest, Runs: nrun, BatchSize: batch, Epoch: rc.epoch,
			RingStores: rc.ring, LiveStores: rc.curLive, Replication: rc.replication}
		req.SetTraceContext(tc)
		if err := rc.sendWithRetry(sc, req); err != nil {
			rc.fail(sc, fmt.Errorf("tuner: requesting training from %s: %w", sc.id, err))
		}
	}
	if len(rc.live) < rc.o.Quorum {
		return Report{}, rc.quorumError("requesting training")
	}
	logger.Debug("fine-tune round started",
		slog.Int("epoch", rc.epoch), slog.Int("stores", len(rc.live)), slog.Int("nrun", nrun))

	rep := Report{Trace: tc.Trace, Runs: nrun}
	rc.ftBufs = make([]map[string]*storeRunBuf, nrun)
	for r := range rc.ftBufs {
		rc.ftBufs[r] = make(map[string]*storeRunBuf)
	}
	cols := t.cfg.FeatureDim

	acceptFeatures := func(sc *storeConn, msg *wire.Message) {
		if !rc.live[sc] || msg.Type != wire.MsgFeatures {
			rc.t.met.staleMsgs.Inc()
			return
		}
		if msg.Run < 0 || msg.Run >= nrun {
			rc.fail(sc, fmt.Errorf("tuner: store %s sent feature batch for bad run %d", sc.id, msg.Run))
			return
		}
		if msg.Cols != cols {
			rc.fail(sc, fmt.Errorf("tuner: store %s sent feature width %d, want %d", sc.id, msg.Cols, cols))
			return
		}
		if msg.Run < rc.nextRun {
			// Already trained that run; a duplicate or laggard batch.
			rc.t.met.staleMsgs.Inc()
			return
		}
		b := rc.ftBufs[msg.Run][sc.id]
		if b == nil {
			b = &storeRunBuf{}
			rc.ftBufs[msg.Run][sc.id] = b
		}
		b.rows = wire.AppendFloat64s(b.rows, msg.X)
		b.labels = append(b.labels, msg.Labels...)
		if rc.ringMode() {
			b.ids = append(b.ids, msg.IDs...)
		}
		if msg.Final {
			b.finals++
		}
		featureBytes := int64(len(msg.X)) * wire.HalfSize
		rep.FeatureBytes += featureBytes
		t.met.featureBytes.Add(featureBytes)
		st := rc.stat(sc.id)
		st.FeatureBytes += featureBytes
		if msg.Final && msg.Run == nrun-1 {
			// The store's last pipelined run is in: its gather phase is done.
			st.GatherSeconds = time.Since(rc.gatherStart).Seconds()
		}
	}

	// Gather+train, pipelined: a per-phase timer (satisfying the round
	// deadline) and a heartbeat ticker (satisfying per-store silence
	// detection) run alongside the inbox.
	gatherTimer := time.NewTimer(rc.o.RoundTimeout)
	defer gatherTimer.Stop()
	hb := time.NewTicker(heartbeatInterval(rc.o))
	defer hb.Stop()

	for r := 0; r < nrun; r++ {
		rc.nextRun = r
		for {
			if len(rc.live) < rc.o.Quorum {
				return Report{}, rc.quorumError(fmt.Sprintf("gathering run %d", r))
			}
			if rc.ringMode() && len(rc.live) < len(rc.curLive) {
				// A store died since the last request: reroute its photos to
				// the survivors before judging run completion — they now owe
				// an extra Final per remaining run.
				rc.reextract(tc, nrun, batch)
				continue
			}
			if rc.runComplete(r) {
				break
			}
			select {
			case ev := <-t.inbox:
				rc.handle(ev, acceptFeatures)
			case <-hb.C:
				want := 1
				if rc.extraFinals != nil {
					want += rc.extraFinals[r]
				}
				rc.checkLiveness(func(sc *storeConn) bool {
					b := rc.ftBufs[r][sc.id]
					return b == nil || b.finals < want
				})
			case <-gatherTimer.C:
				return Report{}, fmt.Errorf("tuner: round %d timed out gathering run %d after %v",
					rc.epoch, r, rc.o.RoundTimeout)
			}
		}
		// Tuner-stage: train on the gathered run, concatenating survivors in
		// registration order (deterministic for a fixed failure schedule).
		// Under ring routing, rows whose ID already trained this round are
		// dropped (a re-extraction can re-deliver rows the dead store got
		// through before dying), and every trained ID leaves the orphan set.
		var rows []float64
		var labels []int
		for _, sc := range rc.participants {
			b := rc.ftBufs[r][sc.id]
			if b == nil || b.finals == 0 {
				continue
			}
			if !rc.ringMode() {
				rows = append(rows, b.rows...)
				labels = append(labels, b.labels...)
				continue
			}
			for i, id := range b.ids {
				if rc.seen[id] {
					continue
				}
				rc.seen[id] = true
				delete(rc.orphans, id)
				rows = append(rows, b.rows[i*cols:(i+1)*cols]...)
				labels = append(labels, b.labels[i])
			}
		}
		n := len(labels)
		if n == 0 {
			if len(rc.failed) == 0 {
				return Report{}, fmt.Errorf("tuner: run %d is empty", r)
			}
			// Every contributor to this run died; skip it and train on what
			// later runs bring.
			rc.ftBufs[r] = nil
			continue
		}
		batchData := &dataset.Batch{X: tensor.FromSlice(n, cols, rows), Labels: labels}
		runSpan := telemetry.Default.Spans().StartSpanIn(tc, "tuner.train-run")
		runSpan.SetAttr("run", fmt.Sprint(r))
		stats, err := trainOneRun(clf, batchData, opt)
		t.met.runTrain.Observe(runSpan.End().Seconds())
		if err != nil {
			return Report{}, err
		}
		rep.Epochs += stats
		rep.Images += n
		rc.ftBufs[r] = nil // release
		// Training blocks the event loop; don't hold that idle time against
		// the stores' silence budget.
		for sc := range rc.live {
			sc.touch()
		}
	}
	gatherTimer.Stop()

	// Check-N-Run distribution: archive the new version and broadcast its
	// delta blob.
	t.mu.Lock()
	// A node closed mid-round (leader deposed, process shutting down) must
	// not commit: Close has already released the state handles and the
	// fleet, so the journal, replication, and broadcast below would all
	// degenerate to no-ops and the caller would see a version that exists
	// nowhere durable.
	select {
	case <-t.done:
		t.mu.Unlock()
		return Report{}, fmt.Errorf("tuner: node closed; round %d cannot commit", rc.epoch)
	default:
	}
	newSnap := clf.TakeSnapshot()
	blob, err := t.archive.Append(newSnap)
	if err != nil {
		t.mu.Unlock()
		return Report{}, err
	}
	t.version = t.archive.Latest()
	version := t.version
	// Durability barrier: the round's WAL record is fsynced BEFORE any
	// store sees the new version, so no acked delta can ever reference a
	// version a restarted tuner fails to recover.
	if err := t.journalRoundLocked(version, rc.epoch, blob); err != nil {
		t.mu.Unlock()
		return Report{}, err
	}
	// The broadcast targets the *current* fleet — surviving participants
	// plus any store that registered mid-round (already caught up to the
	// pre-round version; deltas carry absolute values, so even a straddling
	// catch-up is idempotent).
	targets := append([]*storeConn(nil), t.stores...)
	t.mu.Unlock()

	rep.DeltaBytes = int64(len(blob))
	rep.DeltaBlob = blob
	// Naive distribution would ship the entire model — frozen backbone
	// included — to every store; Check-N-Run ships only the classifier
	// delta (§5, up to 427× smaller at ImageNet scale where the backbone
	// dwarfs the head).
	rep.FullModelBytes = newSnap.Bytes() + t.backbone.TakeSnapshot().Bytes()
	rep.ModelVersion = version

	rc.ackStart = time.Now()
	pending := make(map[*storeConn]bool, len(targets))
	for _, sc := range targets {
		rc.adopt(sc)
		if !rc.live[sc] {
			continue
		}
		// Each store receives its negotiated wire form: the shared dense blob,
		// or a per-store compressed stream with error feedback (delta.Encoding).
		sblob, enc, err := t.encodeDeltaFor(sc, newSnap, version, blob)
		if err != nil {
			rc.fail(sc, fmt.Errorf("tuner: encoding delta for %s: %w", sc.id, err))
			continue
		}
		msg := &wire.Message{Type: wire.MsgModelDelta, Blob: sblob, ModelVersion: version,
			Epoch: rc.epoch, DeltaEncoding: uint8(enc)}
		msg.SetTraceContext(tc)
		if err := rc.sendWithRetry(sc, msg); err != nil {
			rc.fail(sc, fmt.Errorf("tuner: distributing delta to %s: %w", sc.id, err))
			continue
		}
		t.met.deltaBytes.Add(int64(len(sblob)))
		deltaBytesByEnc(enc).Add(int64(len(sblob)))
		pending[sc] = true
	}

	// Ack collection: its own phase timer, heartbeat-checked, pruned as
	// stores fail.
	ackTimer := time.NewTimer(rc.o.RoundTimeout)
	defer ackTimer.Stop()
	prune := func() {
		for sc := range pending {
			if !rc.live[sc] {
				delete(pending, sc)
			}
		}
	}
	for len(pending) > 0 {
		if len(rc.live) < rc.o.Quorum {
			return Report{}, rc.quorumError("distributing delta")
		}
		select {
		case ev := <-t.inbox:
			rc.handle(ev, func(sc *storeConn, msg *wire.Message) {
				if msg.Type == wire.MsgAck && pending[sc] {
					rc.stat(sc.id).AckSeconds = time.Since(rc.ackStart).Seconds()
					delete(pending, sc)
					return
				}
				rc.t.met.staleMsgs.Inc()
			})
		case <-hb.C:
			rc.checkLiveness(func(sc *storeConn) bool { return pending[sc] })
		case <-ackTimer.C:
			return Report{}, fmt.Errorf("tuner: round %d timed out waiting for delta acks after %v",
				rc.epoch, rc.o.RoundTimeout)
		}
		prune()
	}
	if len(rc.live) < rc.o.Quorum {
		return Report{}, rc.quorumError("collecting delta acks")
	}

	rep.WallTime = time.Since(start)
	t.met.trainRounds.Inc()
	t.met.modelVersion.Set(float64(version))
	rc.finishAccounting(&rep)
	rc.flagStragglers(&rep)
	// Per-round resource accounting: the tuner process's cost of the round.
	rep.Resources = telemetry.SampleResources().Sub(res0)
	rep.WireBytesIn = telemetry.Default.Counter("wire_recv_bytes_total").Value() - wireIn0
	rep.WireBytesOut = telemetry.Default.Counter("wire_sent_bytes_total").Value() - wireOut0
	t.met.roundCPU.Set(rep.Resources.CPUSeconds)
	t.met.roundAllocB.Set(float64(rep.Resources.AllocBytes))
	t.met.roundAllocN.Set(float64(rep.Resources.AllocObjects))
	telemetry.Default.Flight().Record(telemetry.FlightRoundCommit, "tuner", "", int64(rc.epoch), int64(version))
	logger.Info("fine-tune round complete",
		slog.Int("epoch", rc.epoch),
		slog.Int("images", rep.Images),
		slog.Int("model_version", version),
		slog.Int64("delta_bytes", rep.DeltaBytes),
		slog.Bool("degraded", rep.Degraded),
		slog.Int("images_lost", rep.ImagesLost),
		slog.Duration("wall", rep.WallTime))
	if rep.Degraded {
		logger.Warn("round committed degraded",
			slog.Int("epoch", rc.epoch),
			slog.Any("failed_stores", rep.FailedStores),
			slog.Int("images_lost", rep.ImagesLost))
	}
	return rep, nil
}

// OfflineInference asks every store to relabel its shard with the current
// model and applies the results to the label database. It returns the
// aggregate refresh statistics (the Table 1 measurement). Like FineTune,
// it completes on the surviving quorum: labels from failed stores are
// simply refreshed in a later pass.
func (t *Node) OfflineInference(batch int) (labeldb.RefreshStats, error) {
	return t.OfflineInferenceTraced(telemetry.SpanContext{}, batch)
}

// OfflineInferenceTraced is OfflineInference inside a caller-provided
// trace context (an empty context mints a fresh trace); the per-store
// near-data inference spans ship back and nest under this span.
func (t *Node) OfflineInferenceTraced(parent telemetry.SpanContext, batch int) (labeldb.RefreshStats, error) {
	span := telemetry.Default.Spans().StartSpanIn(parent, "tuner.offline-inference")
	tc := span.Context()
	logger := t.log.With(telemetry.TraceAttrs(tc)...)
	defer func() {
		t.met.offlineInfer.Observe(span.End().Seconds())
	}()
	t.mu.Lock()
	version := t.version
	t.mu.Unlock()

	rc, err := t.beginRound(span, logger)
	if err != nil {
		return labeldb.RefreshStats{}, err
	}
	for _, sc := range rc.participants {
		req := &wire.Message{Type: wire.MsgInferRequest, BatchSize: batch, Epoch: rc.epoch,
			RingStores: rc.ring, LiveStores: rc.curLive, Replication: rc.replication}
		req.SetTraceContext(tc)
		if err := rc.sendWithRetry(sc, req); err != nil {
			rc.fail(sc, fmt.Errorf("tuner: requesting inference from %s: %w", sc.id, err))
		}
	}
	if len(rc.live) < rc.o.Quorum {
		return labeldb.RefreshStats{}, rc.quorumError("requesting inference")
	}

	agg := labeldb.RefreshStats{ModelVersion: version}
	pending := make(map[*storeConn]bool, len(rc.live))
	for sc := range rc.live {
		pending[sc] = true
	}
	labelTimer := time.NewTimer(rc.o.RoundTimeout)
	defer labelTimer.Stop()
	hb := time.NewTicker(heartbeatInterval(rc.o))
	defer hb.Stop()
	prune := func() {
		for sc := range pending {
			if !rc.live[sc] {
				delete(pending, sc)
			}
		}
	}
	for len(pending) > 0 {
		if len(rc.live) < rc.o.Quorum {
			return labeldb.RefreshStats{}, rc.quorumError("collecting labels")
		}
		select {
		case ev := <-t.inbox:
			rc.handle(ev, func(sc *storeConn, msg *wire.Message) {
				if msg.Type == wire.MsgLabels && pending[sc] {
					st := t.db.ApplyRefresh(msg.LabelsOut, version, msg.StoreID)
					agg.Total += st.Total
					agg.Changed += st.Changed
					delete(pending, sc)
					return
				}
				rc.t.met.staleMsgs.Inc()
			})
		case <-hb.C:
			rc.checkLiveness(func(sc *storeConn) bool { return pending[sc] })
		case <-labelTimer.C:
			return labeldb.RefreshStats{}, fmt.Errorf("tuner: round %d timed out waiting for labels after %v",
				rc.epoch, rc.o.RoundTimeout)
		}
		prune()
	}
	if len(rc.live) < rc.o.Quorum {
		return labeldb.RefreshStats{}, rc.quorumError("collecting labels")
	}
	if agg.Total > 0 {
		agg.FixedFrac = float64(agg.Changed) / float64(agg.Total)
	}
	// The pass is complete: snapshot the refreshed label DB so a restarted
	// tuner serves these labels rather than the previous pass's.
	if err := t.persistLabels(version, rc.epoch); err != nil {
		return labeldb.RefreshStats{}, err
	}
	logger.Info("offline inference complete",
		slog.Int("epoch", rc.epoch),
		slog.Int("relabeled", agg.Total),
		slog.Int("changed", agg.Changed),
		slog.Int("model_version", agg.ModelVersion),
		slog.Bool("degraded", len(rc.failed) > 0))
	if len(rc.failed) > 0 {
		logger.Warn("offline inference degraded",
			slog.Any("failed_stores", rc.failedSorted()))
	}
	return agg, nil
}
