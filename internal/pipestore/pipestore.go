// Package pipestore implements the PipeStore node: a storage server with an
// on-board execution engine that performs near-data feature extraction for
// FT-DMP fine-tuning and near-data offline inference, exactly as §5
// describes. It stores photos (raw + compressed preprocessed binaries) in a
// photostore, runs the NPE 3-stage pipeline (load → decompress/decode →
// forward), and speaks the wire protocol to a Tuner.
package pipestore

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ndpipe/internal/core"
	"ndpipe/internal/dataset"
	"ndpipe/internal/delta"
	"ndpipe/internal/durable"
	"ndpipe/internal/nn"
	"ndpipe/internal/npe"
	"ndpipe/internal/photostore"
	"ndpipe/internal/telemetry"
	"ndpipe/internal/tensor"
	"ndpipe/internal/wire"
)

// preprocBufs recycles the per-photo preprocessed-binary encode buffers
// (see Ingest): the object store compresses the bytes synchronously, so the
// buffer never outlives the PutPreproc call.
var preprocBufs sync.Pool

// Node is one PipeStore.
type Node struct {
	ID  string
	cfg core.ModelConfig

	backbone *nn.Network
	// quant is the calibrated int8 replica of the frozen backbone, installed
	// by SetQuantize. Non-nil means every backbone forward (feature
	// extraction and offline inference) runs through the int8 kernels.
	quant *nn.QuantNetwork

	// wantEnc is the delta wire encoding advertised in the Hello
	// (SetDeltaEncoding; zero value = dense). The Tuner may still send
	// dense blobs — catch-ups always are — so every apply is routed by the
	// message's own DeltaEncoding field, not by this preference.
	wantEnc delta.Encoding
	// flightCodes caches the "<id>/<encoding>" detail strings for delta-apply
	// flight events, keeping the hot path allocation-free.
	flightCodes [3]string

	mu         sync.Mutex
	clf        *nn.Network
	clfSnap    nn.Snapshot // base snapshot deltas apply to
	clfVersion int
	images     []dataset.Image
	imageIdx   map[uint64]int // image ID → index in images (replica dedup)
	store      photostore.ObjectStore

	// Durability plumbing (see scrub.go): scrubCursor remembers where the
	// bounded-rate background scrub left off. scrubMu serializes this
	// node's scrub passes (the background loop and any synchronous
	// MsgScrubQuery-driven pass): the cursor is single-writer by
	// construction. Per node, so one store's slow scrub never blocks
	// another's in an in-process fleet.
	scrubCursor uint64
	scrubMu     sync.Mutex

	// Crash consistency (see persist.go): with a state dir open, every
	// applied delta atomically persists the new snapshot + version before
	// it is acked, so a restarted store re-registers at its real version.
	stateDir    string
	stateFaults *durable.Faults

	met    nodeMetrics
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	log    *slog.Logger

	// Fleet observability: connected flips while Serve holds a tuner
	// connection (the /readyz "tuner-connected" check reads it), metricsSeq
	// numbers MsgMetrics shipments so the tuner-side aggregator can drop
	// stale or duplicate snapshots, and metricsEvery rate-limits shipments
	// (the first one goes immediately; see SetMetricsInterval).
	connected    atomic.Bool
	metricsSeq   atomic.Uint64
	metricsEvery time.Duration
	lastShip     atomic.Int64 // unix-nano of the last shipment (0 = never)

	// fence is the highest leadership epoch this store has seen (S35).
	// Messages stamped with a lower non-zero epoch come from a deposed
	// leader and are rejected without execution — across sessions, so a
	// stale leader reconnecting after a failover stays fenced. Zero-stamped
	// messages (a tuner running without HA) always pass.
	fence atomic.Uint64
}

// DefaultMetricsInterval is how often a store ships its registry snapshot to
// the tuner's fleet aggregator (piggy-backed on command replies).
const DefaultMetricsInterval = 5 * time.Second

// nodeMetrics holds the per-store instruments (labeled by store ID) plus the
// shared NPE stage histograms. Registered once in New; hot paths only touch
// the cached pointers.
type nodeMetrics struct {
	ingested       *telemetry.Counter
	featureBatches *telemetry.Counter
	deltasApplied  *telemetry.Counter
	fencedMsgs     *telemetry.Counter
	modelVersion   *telemetry.Gauge
	extractRun     *telemetry.Histogram
	offlineInfer   *telemetry.Histogram
	stagesFT       *npe.StageMetrics
	stagesInfer    *npe.StageMetrics

	// Durability instruments (scrub, replication).
	scrubObjects   *telemetry.Counter
	scrubCorrupt   *telemetry.Counter
	scrubBytes     *telemetry.Counter
	extractSkips   *telemetry.Counter
	replicaIngests *telemetry.Counter
	replicaRejects *telemetry.Counter
}

func newNodeMetrics(reg *telemetry.Registry, id string) nodeMetrics {
	lbl := func(name string) string { return telemetry.Labeled(name, "store", id) }
	return nodeMetrics{
		ingested:       reg.Counter(lbl("pipestore_images_ingested_total")),
		featureBatches: reg.Counter(lbl("pipestore_feature_batches_total")),
		deltasApplied:  reg.Counter(lbl("pipestore_deltas_applied_total")),
		fencedMsgs:     reg.Counter(lbl("pipestore_fenced_msgs_total")),
		modelVersion:   reg.Gauge(lbl("pipestore_model_version")),
		extractRun:     reg.Histogram(lbl("pipestore_extract_run_seconds")),
		offlineInfer:   reg.Histogram(lbl("pipestore_offline_infer_seconds")),
		stagesFT:       npe.NewStageMetrics(reg, "finetune"),
		stagesInfer:    npe.NewStageMetrics(reg, "offline-inference"),
		scrubObjects:   reg.Counter(lbl("pipestore_scrub_objects_total")),
		scrubCorrupt:   reg.Counter(lbl("pipestore_scrub_corrupt_total")),
		scrubBytes:     reg.Counter(lbl("pipestore_scrub_bytes_total")),
		extractSkips:   reg.Counter(lbl("pipestore_extract_skips_total")),
		replicaIngests: reg.Counter(lbl("pipestore_replica_ingests_total")),
		replicaRejects: reg.Counter(lbl("pipestore_replica_rejects_total")),
	}
}

// New creates a PipeStore with the deterministic backbone/classifier
// replicas for cfg, backed by an in-memory object store.
func New(id string, cfg core.ModelConfig) (*Node, error) {
	return NewWithStorage(id, cfg, photostore.New())
}

// NewWithStorage creates a PipeStore over an explicit object store — pass a
// photostore.DiskStore for a durable node whose NPE load stage performs
// real file I/O.
func NewWithStorage(id string, cfg core.ModelConfig, store photostore.ObjectStore) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, fmt.Errorf("pipestore %s: nil object store", id)
	}
	n := &Node{
		ID:           id,
		cfg:          cfg,
		backbone:     cfg.NewBackbone(),
		clf:          cfg.NewClassifier(),
		store:        store,
		imageIdx:     make(map[uint64]int),
		met:          newNodeMetrics(telemetry.Default, id),
		reg:          telemetry.Default,
		metricsEvery: DefaultMetricsInterval,
		tracer:       telemetry.Default.Spans(),
		log:          telemetry.ComponentLogger("pipestore").With(slog.String("store", id)),
	}
	n.clfSnap = n.clf.TakeSnapshot()
	for _, e := range []delta.Encoding{delta.EncodingDense, delta.EncodingTopK, delta.EncodingInt8} {
		n.flightCodes[e] = id + "/" + e.String()
	}
	return n, nil
}

// SetQuantize switches the frozen backbone to its calibrated int8 replica
// (core.ModelConfig.NewQuantBackbone): feature extraction and offline
// inference run the int8 kernels, the f64 classifier and everything the
// Tuner trains are untouched. Same-config nodes quantize identically, so
// fleet embeddings stay bitwise-reproducible. Errors when the backbone
// architecture is not quantizable (the CNN extractor). Call before traffic.
func (n *Node) SetQuantize() error {
	qn, err := n.cfg.NewQuantBackbone()
	if err != nil {
		return fmt.Errorf("pipestore %s: %w", n.ID, err)
	}
	n.mu.Lock()
	n.quant = qn
	n.mu.Unlock()
	return nil
}

// Quantized reports whether the int8 backbone is installed.
func (n *Node) Quantized() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.quant != nil
}

// SetDeltaEncoding sets the compressed delta codec this store advertises in
// its Hello (delta.EncodingTopK or delta.EncodingInt8; the zero value is the
// dense codec). Call before Serve.
func (n *Node) SetDeltaEncoding(enc delta.Encoding) error {
	if !enc.Valid() {
		return fmt.Errorf("pipestore %s: invalid delta encoding %v", n.ID, enc)
	}
	n.wantEnc = enc
	return nil
}

// forwardBackboneLocked runs the active backbone replica (int8 when
// SetQuantize installed one, f64 otherwise) on a batch. Callers must hold
// n.mu; the returned matrix is network-owned scratch, valid only until the
// next forward.
func (n *Node) forwardBackboneLocked(x *tensor.Matrix) *tensor.Matrix {
	if n.quant != nil {
		return n.quant.Forward(x)
	}
	return n.backbone.Forward(x)
}

// SetTracer replaces the node's span tracer (default: the process-wide
// telemetry.Default tracer). Tests use a private tracer per node to prove
// that spans reach the Tuner only by being shipped over the wire, exactly
// as they would from a separate process.
func (n *Node) SetTracer(tr *telemetry.Tracer) {
	if tr != nil {
		n.tracer = tr
	}
}

// SetRegistry moves the node's instruments into a private registry —
// re-registering the per-store metrics there and switching the tracer and
// flight recorder along with them. In-process fleet simulations (the obs
// experiment, the fleet tests) give each simulated store its own registry so
// the snapshots it ships over MsgMetrics carry only that store's series,
// exactly as a separate process would. Call before Serve or any traffic.
func (n *Node) SetRegistry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	n.reg = reg
	n.met = newNodeMetrics(reg, n.ID)
	n.tracer = reg.Spans()
}

// Registry returns the registry the node instruments into (telemetry.Default
// unless SetRegistry replaced it).
func (n *Node) Registry() *telemetry.Registry { return n.reg }

// SetMetricsInterval sets the minimum spacing between MsgMetrics shipments
// (default DefaultMetricsInterval). Zero or negative ships after every
// command — what fleet tests use to see fresh rollups immediately.
func (n *Node) SetMetricsInterval(d time.Duration) { n.metricsEvery = d }

// Connected reports whether the node currently holds a live tuner
// connection — the /readyz "tuner-connected" health check.
func (n *Node) Connected() bool { return n.connected.Load() }

// Ingest stores a batch of uploaded photos: the raw blob and the
// preprocessed binary (the inference server's +Offload output), which the
// photostore deflate-compresses (+Comp).
func (n *Node) Ingest(imgs []dataset.Image) error {
	for _, img := range imgs {
		if len(img.Feat) != n.cfg.InputDim {
			return fmt.Errorf("pipestore %s: image %d has dim %d, want %d",
				n.ID, img.ID, len(img.Feat), n.cfg.InputDim)
		}
		raw := img.Raw
		if raw == nil {
			// No client payload attached: regenerate the deterministic
			// content (off-path uses like training-set backfill).
			raw = dataset.Blob(img.ID, dataset.DefaultJPEGSpec())
		}
		n.store.Put(img.ID, raw)
		// PutPreproc copies (compresses) the binary before returning, so the
		// encode buffer can be recycled — one less allocation per photo on
		// the upload hot path.
		buf, _ := preprocBufs.Get().([]byte)
		enc := core.AppendFloats(buf[:0], img.Feat)
		err := n.store.PutPreproc(img.ID, enc)
		preprocBufs.Put(enc)
		if err != nil {
			return err
		}
	}
	n.mu.Lock()
	for _, img := range imgs {
		// Replicated ingest can deliver the same photo twice (a retry, or a
		// repair re-put): the newest copy replaces the old entry instead of
		// double-counting it in extraction rounds.
		if idx, ok := n.imageIdx[img.ID]; ok {
			n.images[idx] = img
			continue
		}
		n.imageIdx[img.ID] = len(n.images)
		n.images = append(n.images, img)
	}
	n.mu.Unlock()
	n.met.ingested.Add(int64(len(imgs)))
	return nil
}

// NumImages returns the shard size.
func (n *Node) NumImages() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.images)
}

// Storage exposes the underlying object store (read-mostly; used by tests
// and the usage accounting).
func (n *Node) Storage() photostore.ObjectStore { return n.store }

// ModelVersion returns the classifier version currently installed.
func (n *Node) ModelVersion() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.clfVersion
}

// ClassifierSnapshot returns a deep copy of the installed classifier state
// (what the store would persist), for recovery assertions and experiments.
func (n *Node) ClassifierSnapshot() nn.Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(nn.Snapshot, len(n.clfSnap))
	for k, m := range n.clfSnap {
		out[k] = m.Clone()
	}
	return out
}

// loadedImage is an item flowing through the NPE pipeline.
type loadedImage struct {
	img  dataset.Image
	blob []byte // compressed preprocessed binary
}

type decodedImage struct {
	img  dataset.Image
	feat []float64
}

// ExtractRuns splits the local shard into nrun sub-shards and, for each
// run, pushes feature batches through emit. The NPE 3-stage pipeline
// overlaps storage reads, CPU decompression/decoding and the forward pass.
func (n *Node) ExtractRuns(nrun, batch int, emit func(*wire.Message) error) error {
	return n.ExtractRunsTraced(telemetry.SpanContext{}, nrun, batch, emit)
}

// ExtractRunsTraced is ExtractRuns inside a distributed trace: tc is the
// remote parent carried in the Tuner's MsgTrainRequest (an empty context
// starts a store-local trace). The extraction root span, per-run spans and
// the Fig-6 stage spans (read/preproc/fecl) all land in the node's tracer,
// from which Serve ships them back to the Tuner.
func (n *Node) ExtractRunsTraced(tc telemetry.SpanContext, nrun, batch int, emit func(*wire.Message) error) error {
	if nrun < 1 {
		nrun = 1
	}
	if batch < 1 {
		batch = 128
	}
	n.mu.Lock()
	shard := append([]dataset.Image(nil), n.images...)
	n.mu.Unlock()
	if len(shard) == 0 {
		return fmt.Errorf("pipestore %s: no images to extract", n.ID)
	}
	return n.extractShardTraced(tc, shard, 0, nrun, batch, emit, false)
}

// extractShardTraced partitions shard across runs [fromRun, nrun) and
// extracts each. fromRun > 0 is the re-extraction path: the tuner re-sent
// the round's request after an eviction, and this store covers the dead
// peer's photos only for the runs not yet trained. Every run closes with a
// Final batch even when its slice is empty — the tuner's gather counts
// finals, and a silent run would stall the round.
func (n *Node) extractShardTraced(tc telemetry.SpanContext, shard []dataset.Image, fromRun, nrun, batch int, emit func(*wire.Message) error, skipMissing bool) error {
	parts := nrun - fromRun
	if parts < 1 {
		return nil
	}
	span := n.tracer.StartSpanIn(tc, "pipestore.extract")
	span.SetAttr("store", n.ID)
	defer span.End()
	per := len(shard) / parts
	for r := fromRun; r < nrun; r++ {
		k := r - fromRun
		lo := k * per
		hi := lo + per
		if r == nrun-1 {
			hi = len(shard)
		}
		if err := n.extractRun(span.Context(), r, shard[lo:hi], batch, emit, skipMissing); err != nil {
			return err
		}
	}
	return nil
}

func (n *Node) extractRun(tc telemetry.SpanContext, run int, shard []dataset.Image, batch int, emit func(*wire.Message) error, skipMissing bool) error {
	runSpan := n.tracer.StartSpanIn(tc, "pipestore.extract-run")
	runSpan.SetAttr("store", n.ID)
	runSpan.SetAttr("run", fmt.Sprint(run))
	runCtx := runSpan.Context()
	n.reg.Flight().Record(telemetry.FlightExtractRun, "pipestore", n.ID, int64(run), int64(len(shard)))
	defer func(t0 time.Time) {
		runSpan.End()
		n.met.extractRun.Observe(time.Since(t0).Seconds())
	}(time.Now())
	var pending []decodedImage
	nBatches := (len(shard) + batch - 1) / batch
	sent := 0
	finalSent := false
	flush := func(final bool) error {
		if len(pending) == 0 {
			return nil
		}
		msg, err := n.featureBatch(run, pending, final)
		if err != nil {
			return err
		}
		msg.SetTraceContext(runCtx)
		pending = pending[:0]
		sent++
		if final {
			finalSent = true
		}
		n.met.featureBatches.Inc()
		return emit(msg)
	}
	if len(shard) > 0 {
		err := npe.Run3StageTraced(shard,
			func(img dataset.Image) (loadedImage, error) {
				blob, err := n.store.GetPreprocCompressed(img.ID)
				if err != nil {
					if skipMissing {
						// Quarantined or missing object: serve the healthy
						// rest of the shard and let repair catch this one up,
						// instead of failing the whole round.
						n.met.extractSkips.Inc()
						return loadedImage{img: img}, nil
					}
					return loadedImage{}, err
				}
				return loadedImage{img: img, blob: blob}, nil
			},
			func(li loadedImage) (decodedImage, error) {
				if li.blob == nil {
					return decodedImage{img: li.img}, nil // skipped upstream
				}
				raw, err := inflate(li.blob)
				if err != nil {
					return decodedImage{}, err
				}
				feat, err := core.DecodeFloats(raw)
				if err != nil {
					return decodedImage{}, err
				}
				return decodedImage{img: li.img, feat: feat}, nil
			},
			func(di decodedImage) error {
				if di.feat == nil {
					return nil // skipped upstream
				}
				pending = append(pending, di)
				if len(pending) >= batch {
					return flush(sent == nBatches-1)
				}
				return nil
			},
			4,
			n.met.stagesFT,
			&npe.StageTrace{Tracer: n.tracer, Parent: runCtx},
		)
		if err != nil {
			return err
		}
		if err := flush(true); err != nil {
			return err
		}
	}
	if !finalSent {
		// Empty slice (or every batch skipped): the run still owes the tuner
		// its Final marker, as a zero-row batch.
		msg := &wire.Message{Type: wire.MsgFeatures, StoreID: n.ID, Run: run,
			Cols: n.cfg.FeatureDim, Final: true}
		msg.SetTraceContext(runCtx)
		n.met.featureBatches.Inc()
		return emit(msg)
	}
	return nil
}

// featureBatch runs the frozen backbone over a decoded batch and wraps the
// embeddings in a wire message. The input matrix comes from the tensor
// scratch arena, and the embeddings are rounded to binary16 straight out of
// the backbone's layer scratch before the lock drops (the network's Forward
// output is only valid until its next Forward — see the nn.Layer contract).
// A NaN or infinity among them fails the batch: it is never sent.
func (n *Node) featureBatch(run int, items []decodedImage, final bool) (*wire.Message, error) {
	x := tensor.Get(len(items), n.cfg.InputDim)
	defer tensor.Put(x)
	labels := make([]int, len(items))
	ids := make([]uint64, len(items))
	for i, it := range items {
		copy(x.Row(i), it.feat)
		labels[i] = it.img.Class
		ids[i] = it.img.ID
	}
	n.mu.Lock()
	feats := n.forwardBackboneLocked(x)
	rows, cols := feats.Rows, feats.Cols
	data, err := wire.AppendHalves(nil, feats.Data)
	n.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("pipestore %s: run %d: %w", n.ID, run, err)
	}
	return &wire.Message{
		Type:    wire.MsgFeatures,
		StoreID: n.ID,
		Run:     run,
		Rows:    rows,
		Cols:    cols,
		X:       data,
		Labels:  labels,
		IDs:     ids,
		Final:   final,
	}, nil
}

// ApplyDelta installs a Check-N-Run classifier delta broadcast by the Tuner.
func (n *Node) ApplyDelta(blob []byte, version int) error {
	return n.applyDelta(blob, version, false, delta.EncodingDense)
}

// applyDelta installs a delta against the current snapshot — or, when
// rebase is set, against the deterministic initial classifier (the Tuner
// sends rebase catch-ups when this store's version predates its pruned
// history floor). Dense blobs assign absolute weights; compressed blobs
// (enc != EncodingDense) apply additively against the exact state the
// Tuner's compressor tracks for this store, so they are never combined
// with a rebase. With a state dir open the new state is made durable
// before the method returns, so the ack that follows is a promise the
// store keeps across restarts.
func (n *Node) applyDelta(blob []byte, version int, rebase bool, enc delta.Encoding) error {
	if !enc.Valid() {
		return fmt.Errorf("pipestore %s: unknown delta encoding %d", n.ID, enc)
	}
	if enc != delta.EncodingDense && rebase {
		return fmt.Errorf("pipestore %s: compressed delta cannot be a rebase", n.ID)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	var snap nn.Snapshot
	if enc == delta.EncodingDense {
		d, err := delta.Decode(blob)
		if err != nil {
			return fmt.Errorf("pipestore %s: %w", n.ID, err)
		}
		base := n.clfSnap
		if rebase {
			base = n.cfg.NewClassifier().TakeSnapshot()
		}
		snap, err = d.Apply(base)
		if err != nil {
			return fmt.Errorf("pipestore %s: %w", n.ID, err)
		}
	} else {
		cd, err := delta.DecodeCompressed(blob)
		if err != nil {
			return fmt.Errorf("pipestore %s: %w", n.ID, err)
		}
		if cd.Enc != enc {
			return fmt.Errorf("pipestore %s: blob is %v but envelope says %v", n.ID, cd.Enc, enc)
		}
		snap, err = cd.ApplyAdd(n.clfSnap)
		if err != nil {
			return fmt.Errorf("pipestore %s: %w", n.ID, err)
		}
	}
	if err := n.clf.Restore(snap); err != nil {
		return fmt.Errorf("pipestore %s: %w", n.ID, err)
	}
	prevSnap, prevVersion := n.clfSnap, n.clfVersion
	n.clfSnap = snap
	n.clfVersion = version
	if err := n.persistStateLocked(); err != nil {
		// Roll back: an unpersistable delta must not be acked, and the
		// in-memory model must agree with what we would recover to.
		n.clfSnap, n.clfVersion = prevSnap, prevVersion
		_ = n.clf.Restore(prevSnap)
		return err
	}
	n.met.deltasApplied.Inc()
	n.met.modelVersion.Set(float64(version))
	// The flight event names the wire encoding alongside the store, so a
	// post-mortem dump shows which deltas arrived compressed and how big.
	n.reg.Flight().Record(telemetry.FlightDeltaApply, "pipestore", n.flightCodes[enc], int64(version), int64(len(blob)))
	return nil
}

// OfflineInfer relabels every locally stored photo with the current model,
// entirely near the data: it reads the compressed binaries, decodes them,
// and runs backbone+classifier. Only labels leave the node.
func (n *Node) OfflineInfer(batch int) (map[uint64]int, error) {
	return n.OfflineInferTraced(telemetry.SpanContext{}, batch)
}

// OfflineInferTraced is OfflineInfer inside a distributed trace, parented
// at the Tuner's MsgInferRequest span when tc is set.
func (n *Node) OfflineInferTraced(tc telemetry.SpanContext, batch int) (map[uint64]int, error) {
	n.mu.Lock()
	shard := append([]dataset.Image(nil), n.images...)
	n.mu.Unlock()
	return n.offlineInferShard(tc, shard, batch)
}

// offlineInferShard relabels one image shard — the whole local holding on
// the legacy path, or just the owned subset under ring routing.
func (n *Node) offlineInferShard(tc telemetry.SpanContext, shard []dataset.Image, batch int) (map[uint64]int, error) {
	span := n.tracer.StartSpanIn(tc, "pipestore.offline-infer")
	span.SetAttr("store", n.ID)
	stageCtx := span.Context()
	defer func(t0 time.Time) {
		span.End()
		n.met.offlineInfer.Observe(time.Since(t0).Seconds())
	}(time.Now())
	if batch < 1 {
		batch = 128
	}
	n.mu.Lock()
	clf := n.clf
	n.mu.Unlock()
	out := make(map[uint64]int, len(shard))
	var pending []decodedImage
	classify := func() error {
		if len(pending) == 0 {
			return nil
		}
		x := tensor.Get(len(pending), n.cfg.InputDim)
		for i, it := range pending {
			copy(x.Row(i), it.feat)
		}
		// ArgmaxRows must run before the unlock: logits is the classifier's
		// layer scratch and the next Forward (any goroutine) overwrites it.
		n.mu.Lock()
		logits := clf.Forward(n.forwardBackboneLocked(x))
		preds := logits.ArgmaxRows()
		n.mu.Unlock()
		tensor.Put(x)
		for i, it := range pending {
			out[it.img.ID] = preds[i]
		}
		pending = pending[:0]
		return nil
	}
	err := npe.Run3StageTraced(shard,
		func(img dataset.Image) (loadedImage, error) {
			blob, err := n.store.GetPreprocCompressed(img.ID)
			if err != nil {
				return loadedImage{}, err
			}
			return loadedImage{img: img, blob: blob}, nil
		},
		func(li loadedImage) (decodedImage, error) {
			raw, err := inflate(li.blob)
			if err != nil {
				return decodedImage{}, err
			}
			feat, err := core.DecodeFloats(raw)
			if err != nil {
				return decodedImage{}, err
			}
			return decodedImage{img: li.img, feat: feat}, nil
		},
		func(di decodedImage) error {
			pending = append(pending, di)
			if len(pending) >= batch {
				return classify()
			}
			return nil
		},
		4,
		n.met.stagesInfer,
		&npe.StageTrace{Tracer: n.tracer, Parent: stageCtx},
	)
	if err != nil {
		return nil, err
	}
	if err := classify(); err != nil {
		return nil, err
	}
	return out, nil
}

// Serve speaks the wire protocol on conn until the peer disconnects:
// registration, then TrainRequest / ModelDelta / InferRequest commands.
// Commands carrying a trace context are executed under spans parented at
// the Tuner's remote span, and the finished spans are shipped back in a
// MsgSpans envelope before the command's closing message, so the Tuner's
// collector holds the store's side of the round by the time the round
// completes.
//
// Reading and command execution are split across two goroutines so that a
// liveness ping is answered immediately even while the node is deep in a
// long extraction or inference — otherwise a busy store would be
// indistinguishable from a dead one and the Tuner's silent-death detector
// would evict it. Codec sends are mutex-serialized, so the pong cannot
// interleave with an in-flight feature batch.
func (n *Node) Serve(conn net.Conn) error {
	defer conn.Close()
	n.connected.Store(true)
	defer n.connected.Store(false)
	c := wire.NewCodec(conn)
	// The Hello advertises our persisted model version, so the Tuner ships
	// only the catch-up for rounds we missed (nothing, if we're current) —
	// and the compressed delta codec we can decode (zero = dense).
	if err := c.Send(&wire.Message{Type: wire.MsgHello, StoreID: n.ID,
		ModelVersion: n.ModelVersion(), DeltaEncoding: uint8(n.wantEnc)}); err != nil {
		return err
	}
	cmds := make(chan *wire.Message)
	readErr := make(chan error, 1)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(cmds)
		for {
			msg, err := c.Recv()
			if err != nil {
				readErr <- err
				return
			}
			if !n.admitLeader(msg) {
				// A deposed leader's delayed or replayed command: refuse it
				// before it can reach execution — not even a pong, so the
				// stale leader cannot mistake this store for a follower.
				_ = c.Send(&wire.Message{Type: wire.MsgError, StoreID: n.ID, Epoch: msg.Epoch,
					Err: fmt.Sprintf("fenced: leader epoch %d below %d", msg.LeaderEpoch, n.fence.Load())})
				continue
			}
			if msg.Type == wire.MsgPing {
				_ = c.Send(&wire.Message{Type: wire.MsgPong, StoreID: n.ID, Epoch: msg.Epoch})
				continue
			}
			select {
			case cmds <- msg:
			case <-done:
				return
			}
		}
	}()
	for msg := range cmds {
		if err := n.serveOne(c, msg); err != nil {
			return err
		}
		// Piggy-back a registry snapshot on the command's tail, after the
		// closing reply: the Tuner's catch-up path does a direct Recv for the
		// ack, and shipping metrics behind it keeps that exchange in order.
		n.shipMetrics(c)
	}
	err := <-readErr
	if err == io.EOF {
		n.log.Debug("tuner disconnected")
		return nil
	}
	return err
}

// admitLeader is the leader-epoch fence: it admits unfenced (epoch-0)
// messages, admits and remembers anything at or above the highest epoch
// seen so far, and rejects the rest — a deposed leader's traffic, however
// delayed or replayed, can never advance this store's state.
func (n *Node) admitLeader(msg *wire.Message) bool {
	le := msg.LeaderEpoch
	if le == 0 {
		return true
	}
	for {
		cur := n.fence.Load()
		if le < cur {
			n.met.fencedMsgs.Inc()
			telemetry.Default.Flight().Record(telemetry.FlightFenced, "pipestore", n.ID,
				int64(le), int64(cur))
			n.log.Warn("fenced stale leader message",
				slog.String("type", msg.Type.String()),
				slog.Uint64("leader_epoch", le), slog.Uint64("fence", cur))
			return false
		}
		if le == cur {
			return true
		}
		if n.fence.CompareAndSwap(cur, le) {
			if cur != 0 {
				n.log.Info("new leader observed",
					slog.Uint64("leader_epoch", le), slog.Uint64("previous", cur))
			}
			return true
		}
	}
}

// serveOne executes a single Tuner command. Every reply echoes the
// command's round epoch, so if this store is evicted mid-round and later
// rejoins, replies still in flight from the old round are detectably stale
// at the Tuner instead of poisoning the next round.
func (n *Node) serveOne(c *wire.Codec, msg *wire.Message) error {
	tc := msg.TraceContext()
	epoch := msg.Epoch
	logger := n.log.With(telemetry.TraceAttrs(tc)...)
	sendErr := func(cmdErr error) {
		_ = c.Send(&wire.Message{Type: wire.MsgError, StoreID: n.ID, Err: cmdErr.Error(), Epoch: epoch})
	}
	switch msg.Type {
	case wire.MsgTrainRequest:
		logger.Debug("train request", slog.Int("runs", msg.Runs), slog.Int("batch", msg.BatchSize),
			slog.Int("ring", len(msg.RingStores)), slog.Int("from_run", msg.FromRun))
		emit := func(m *wire.Message) error {
			m.Epoch = epoch
			return c.Send(m)
		}
		var err error
		if len(msg.RingStores) > 0 {
			err = n.extractOwned(tc, msg, emit)
		} else {
			err = n.ExtractRunsTraced(tc, msg.Runs, msg.BatchSize, emit)
		}
		n.shipSpans(c, tc.Trace)
		if err != nil {
			logger.Error("feature extraction failed", slog.Any("err", err))
			sendErr(err)
			return err
		}
	case wire.MsgModelDelta:
		span := n.tracer.StartSpanIn(tc, "pipestore.apply-delta")
		span.SetAttr("store", n.ID)
		err := n.applyDelta(msg.Blob, msg.ModelVersion, msg.Rebase, delta.Encoding(msg.DeltaEncoding))
		span.End()
		n.shipSpans(c, tc.Trace)
		if err != nil {
			logger.Error("delta apply failed", slog.Any("err", err))
			sendErr(err)
			return err
		}
		logger.Debug("model delta applied", slog.Int("version", msg.ModelVersion), slog.Int("bytes", len(msg.Blob)))
		if err := c.Send(&wire.Message{Type: wire.MsgAck, StoreID: n.ID, ModelVersion: msg.ModelVersion, Epoch: epoch}); err != nil {
			return err
		}
	case wire.MsgInferRequest:
		logger.Debug("offline-inference request", slog.Int("batch", msg.BatchSize))
		var labels map[uint64]int
		var err error
		if len(msg.RingStores) > 0 {
			labels, err = n.offlineInferOwned(tc, msg)
		} else {
			labels, err = n.OfflineInferTraced(tc, msg.BatchSize)
		}
		n.shipSpans(c, tc.Trace)
		if err != nil {
			logger.Error("offline inference failed", slog.Any("err", err))
			sendErr(err)
			return err
		}
		if err := c.Send(&wire.Message{
			Type: wire.MsgLabels, StoreID: n.ID,
			LabelsOut: labels, ModelVersion: n.ModelVersion(), Epoch: epoch,
		}); err != nil {
			return err
		}
	case wire.MsgObjectPut:
		// Replicated/repaired objects relayed by the tuner. A rejection (CRC
		// mismatch, undecodable payload) fails the batch report but never the
		// connection: the healthy objects are already stored.
		accepted, ierr := n.IngestReplica(msg.Objects)
		logger.Debug("object put", slog.Int("objects", len(msg.Objects)), slog.Int("accepted", accepted))
		if ierr != nil {
			_ = c.Send(&wire.Message{Type: wire.MsgError, StoreID: n.ID,
				Err: ierr.Error(), Rows: accepted, Epoch: epoch})
			return nil
		}
		if err := c.Send(&wire.Message{Type: wire.MsgAck, StoreID: n.ID, Rows: accepted, Epoch: epoch}); err != nil {
			return err
		}
	case wire.MsgObjectFetch:
		logger.Debug("object fetch", slog.Int("ids", len(msg.IDs)))
		if err := n.sendObjects(c, n.fetchObjects(msg.IDs), epoch); err != nil {
			return err
		}
	case wire.MsgScrubQuery:
		// A non-zero BatchSize asks for a synchronous scrub pass before
		// reporting — how the tuner drives scrubbing without relying on the
		// store's own background cadence. Negative = scrub the whole holding;
		// zero = just report. IDs lists every object with servable bytes;
		// quarantined objects are only in Quarantined, so the tuner counts
		// them missing and refills them like a replica never written.
		if msg.BatchSize != 0 {
			n.ScrubOnce(msg.BatchSize)
		}
		if err := c.Send(&wire.Message{Type: wire.MsgScrubReport, StoreID: n.ID,
			Quarantined: n.store.Quarantined(), IDs: n.store.IDs(), Epoch: epoch}); err != nil {
			return err
		}
	default:
		_ = c.SendError(n.ID, fmt.Errorf("pipestore: unexpected message %v", msg.Type))
	}
	return nil
}

// shipSpans sends this store's buffered spans of one trace back to the
// Tuner. The collector on the other side deduplicates by span ID, so
// overlapping shipments (extraction, then delta apply, within one round's
// trace) are harmless. Untraced commands ship nothing.
func (n *Node) shipSpans(c *wire.Codec, trace telemetry.TraceID) {
	if trace == 0 {
		return
	}
	spans := ownSpans(n.tracer.TraceSpans(trace), n.ID)
	if len(spans) == 0 {
		return
	}
	if err := c.Send(&wire.Message{Type: wire.MsgSpans, StoreID: n.ID, Trace: trace, Spans: spans}); err != nil {
		n.log.Warn("span shipment failed", slog.String("trace_id", trace.String()), slog.Any("err", err))
	}
}

// ownSpans keeps the spans a store recorded itself: those tagged with its ID
// and the NPE stage spans directly beneath them. A store process has nothing
// else in its tracer, but an in-process fleet shares one tracer between the
// Tuner and every store, and shipping whatever the others happened to have
// finished would make a round's traffic depend on timing.
func ownSpans(spans []telemetry.SpanRecord, store string) []telemetry.SpanRecord {
	own := make(map[telemetry.SpanID]bool, len(spans))
	for _, s := range spans {
		if s.AttrValue("store") == store {
			own[s.ID] = true
		}
	}
	out := spans[:0]
	for _, s := range spans {
		if own[s.ID] || own[s.Parent] {
			out = append(out, s)
		}
	}
	return out
}

// shipMetrics sends the node's registry snapshot (dense histogram buckets,
// so the aggregator's merge is lossless) tagged with the next shipment
// sequence number. Best-effort: a failed shipment is logged, never fatal —
// the next command's piggy-back carries a fresher snapshot anyway.
func (n *Node) shipMetrics(c *wire.Codec) {
	if every := n.metricsEvery; every > 0 {
		now := time.Now().UnixNano()
		last := n.lastShip.Load()
		// First-ever shipment goes immediately (the aggregator should see a
		// new store within its first command); after that, rate-limit.
		if last != 0 && now-last < int64(every) {
			return
		}
		if !n.lastShip.CompareAndSwap(last, now) {
			return
		}
	}
	seq := n.metricsSeq.Add(1)
	points := n.reg.SnapshotDense()
	if len(points) == 0 {
		return
	}
	err := c.Send(&wire.Message{
		Type:       wire.MsgMetrics,
		StoreID:    n.ID,
		Metrics:    points,
		MetricsSeq: seq,
	})
	if err != nil {
		n.log.Warn("metrics shipment failed", slog.Uint64("seq", seq), slog.Any("err", err))
	}
}

// inflate decompresses a deflate blob (photostore stores binaries
// compressed, so this is the NPE decompression stage).
func inflate(blob []byte) ([]byte, error) {
	return photostore.Inflate(blob)
}
