// Package inferserver implements the inference server of the photo system
// (Fig 3): the node that handles the *online* path. When a user uploads a
// photo it (1) preprocesses it, (2) runs online inference to label it,
// (3) routes the photo — raw bytes plus the preprocessed binary, which is
// the NPE +Offload optimization (§5.4) — to a PipeStore, and (4) indexes
// the label and location in the label database.
//
// It also receives model updates from the Tuner (Check-N-Run deltas), so
// freshly uploaded photos are always labeled by the newest model.
package inferserver

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"ndpipe/internal/core"
	"ndpipe/internal/dataset"
	"ndpipe/internal/delta"
	"ndpipe/internal/labeldb"
	"ndpipe/internal/nn"
	"ndpipe/internal/pipestore"
	"ndpipe/internal/placement"
	"ndpipe/internal/telemetry"
	"ndpipe/internal/tensor"
)

// Server is the online-inference node.
type Server struct {
	cfg      core.ModelConfig
	backbone *nn.Network
	// quant is the calibrated int8 replica of the frozen backbone, installed
	// by SetQuantize: uploads then embed through the int8 kernels while the
	// f64 classifier (and the delta-apply path) stay untouched.
	quant *nn.QuantNetwork

	mu      sync.Mutex
	clf     *nn.Network
	clfSnap nn.Snapshot
	version int
	stores  []*pipestore.Node // upload routing targets (in-process handles)
	next    int               // round-robin cursor
	ring    *placement.Ring   // non-nil once EnableReplication is called
	idx     map[string]int    // store ID -> index in stores
	db      *labeldb.DB

	uploads int

	met serverMetrics
	log *slog.Logger
}

// serverMetrics holds the upload-path instruments, registered once in New.
type serverMetrics struct {
	uploads       *telemetry.Counter
	searches      *telemetry.Counter
	deltasApplied *telemetry.Counter
	modelVersion  *telemetry.Gauge
	uploadLatency *telemetry.Histogram
	confidence    *telemetry.Histogram
	// Upload failures by cause — without these, rejected uploads are
	// invisible in /metrics (only their latency is observed).
	errDim    *telemetry.Counter
	errIngest *telemetry.Counter
	// Replica-write failures: the upload still succeeded (another copy
	// landed) but the object is under-replicated until the tuner's next
	// reconcile pass (tuner.Reconcile) refills the missing replica —
	// checksum scrubbing alone cannot see it, there are no bytes to verify.
	// A growing counter with no reconcile scheduled is a durability gap.
	errReplica *telemetry.Counter
}

func newServerMetrics() serverMetrics {
	reg := telemetry.Default
	return serverMetrics{
		uploads:       reg.Counter("inferserver_uploads_total"),
		searches:      reg.Counter("inferserver_searches_total"),
		deltasApplied: reg.Counter("inferserver_deltas_applied_total"),
		modelVersion:  reg.Gauge("inferserver_model_version"),
		uploadLatency: reg.Histogram("inferserver_upload_seconds"),
		// Confidence lives in [0,1]: linear buckets, not latency buckets.
		confidence: reg.HistogramBuckets("inferserver_upload_confidence",
			[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}),
		errDim:     reg.Counter(telemetry.Labeled("inferserver_upload_errors_total", "reason", "dim")),
		errIngest:  reg.Counter(telemetry.Labeled("inferserver_upload_errors_total", "reason", "ingest")),
		errReplica: reg.Counter(telemetry.Labeled("inferserver_upload_errors_total", "reason", "replica")),
	}
}

// New creates an inference server that routes uploads across the given
// PipeStores and indexes labels into db.
func New(cfg core.ModelConfig, stores []*pipestore.Node, db *labeldb.DB) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(stores) == 0 {
		return nil, fmt.Errorf("inferserver: need at least one PipeStore")
	}
	if db == nil {
		db = labeldb.New()
	}
	s := &Server{
		cfg:      cfg,
		backbone: cfg.NewBackbone(),
		clf:      cfg.NewClassifier(),
		stores:   stores,
		db:       db,
		met:      newServerMetrics(),
		log:      telemetry.ComponentLogger("inferserver"),
	}
	s.clfSnap = s.clf.TakeSnapshot()
	return s, nil
}

// SetQuantize switches the frozen backbone to its calibrated int8 replica
// (core.ModelConfig.NewQuantBackbone). Quantized embeddings are
// deterministic but not bitwise-equal to f64 ones, so PrecisionMode changes
// with it — the serving gateway keys its content-hash cache on that mode,
// keeping f64 and int8 artifacts strictly separate. Call before traffic.
func (s *Server) SetQuantize() error {
	qn, err := s.cfg.NewQuantBackbone()
	if err != nil {
		return fmt.Errorf("inferserver: %w", err)
	}
	s.mu.Lock()
	s.quant = qn
	s.mu.Unlock()
	return nil
}

// PrecisionMode names the backbone precision labeling new uploads
// (nn.PrecisionF64 or nn.PrecisionInt8). The serving gateway folds it into
// its cache key derivation so mixed-precision fleets can never cross-serve
// cached embeddings.
func (s *Server) PrecisionMode() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.quant != nil {
		return nn.PrecisionInt8
	}
	return nn.PrecisionF64
}

// forwardBackboneLocked runs the active backbone replica (int8 when
// SetQuantize installed one). Callers must hold s.mu; the result is
// network-owned scratch, valid only until the next forward.
func (s *Server) forwardBackboneLocked(x *tensor.Matrix) *tensor.Matrix {
	if s.quant != nil {
		return s.quant.Forward(x)
	}
	return s.backbone.Forward(x)
}

// EnableReplication switches upload routing from round-robin to
// consistent-hash placement with replication factor r: each photo is written
// to all r ring replicas of its ID, so losing any single PipeStore leaves
// every photo readable on a surviving replica. The label index records the
// primary (first) replica as the photo's Location. Call before traffic; the
// ring is built over the stores the server was constructed with.
func (s *Server) EnableReplication(r int) error {
	ids := make([]string, len(s.stores))
	idx := make(map[string]int, len(s.stores))
	for i, ps := range s.stores {
		ids[i] = ps.ID
		idx[ps.ID] = i
	}
	ring, err := placement.New(ids, r)
	if err != nil {
		return fmt.Errorf("inferserver: %w", err)
	}
	s.mu.Lock()
	s.ring = ring
	s.idx = idx
	s.mu.Unlock()
	return nil
}

// Replication reports the replication factor (0 when routing round-robin).
func (s *Server) Replication() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring == nil {
		return 0
	}
	return s.ring.Replication()
}

// DB exposes the label index.
func (s *Server) DB() *labeldb.DB { return s.db }

// ModelVersion returns the classifier version labeling new uploads.
func (s *Server) ModelVersion() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Uploads returns how many photos have been ingested.
func (s *Server) Uploads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.uploads
}

// ApplyDelta installs a Check-N-Run model update from the Tuner.
func (s *Server) ApplyDelta(blob []byte, version int) error {
	d, err := delta.Decode(blob)
	if err != nil {
		return fmt.Errorf("inferserver: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, err := d.Apply(s.clfSnap)
	if err != nil {
		return fmt.Errorf("inferserver: %w", err)
	}
	if err := s.clf.Restore(snap); err != nil {
		return fmt.Errorf("inferserver: %w", err)
	}
	s.clfSnap = snap
	s.version = version
	s.met.deltasApplied.Inc()
	s.met.modelVersion.Set(float64(version))
	s.log.Debug("model delta applied",
		slog.Int("model_version", version),
		slog.Int("delta_bytes", len(blob)))
	return nil
}

// UploadResult reports where an upload landed and how it was labeled.
type UploadResult struct {
	ImageID      uint64
	Label        int
	Confidence   float64 // max softmax probability of the online label
	ModelVersion int
	StoreID      string
}

// Upload runs the full online path for one photo: preprocess → online
// inference → store (raw + preprocessed binary) → index label.
func (s *Server) Upload(img dataset.Image) (UploadResult, error) {
	defer func(t0 time.Time) { s.met.uploadLatency.Observe(time.Since(t0).Seconds()) }(time.Now())
	if len(img.Feat) != s.cfg.InputDim {
		s.met.errDim.Inc()
		return UploadResult{}, fmt.Errorf("inferserver: image %d has dim %d, want %d",
			img.ID, len(img.Feat), s.cfg.InputDim)
	}
	// Online inference on the preprocessed input.
	x := tensor.FromSlice(1, s.cfg.InputDim, img.Feat)
	s.mu.Lock()
	logits := s.clf.Forward(s.forwardBackboneLocked(x))
	// Clone before the unlock: logits is the classifier's layer scratch and
	// the next Forward (any goroutine) overwrites it in place.
	probs := logits.Clone()
	version := s.version
	var targets []*pipestore.Node
	if s.ring != nil {
		for _, id := range s.ring.Replicas(img.ID) {
			targets = append(targets, s.stores[s.idx[id]])
		}
	} else {
		targets = []*pipestore.Node{s.stores[s.next%len(s.stores)]}
		s.next++
	}
	s.uploads++
	s.mu.Unlock()
	probs.SoftmaxRows()
	label := probs.ArgmaxRows()[0]
	confidence := probs.At(0, label)

	// Store near the data: raw photo plus the preprocessed binary
	// (+Offload), which the PipeStore compresses (+Comp). Under replication
	// the write fans to every ring replica; the upload succeeds as long as
	// at least one copy lands. A failed replica write leaves the photo
	// under-replicated — not lost — until the tuner's next reconcile pass
	// (tuner.Reconcile) diffs store holdings against the ring and refills
	// the missing copy; checksum scrubbing cannot see it.
	var target *pipestore.Node
	var lastErr error
	for _, tgt := range targets {
		if err := tgt.Ingest([]dataset.Image{img}); err != nil {
			s.met.errReplica.Inc()
			lastErr = err
			continue
		}
		if target == nil {
			target = tgt
		}
	}
	if target == nil {
		s.met.errIngest.Inc()
		return UploadResult{}, lastErr
	}
	// Index for search. Location is the primary — ring walk order under
	// replication (targets[0] is Replicas(id)[0]), the round-robin pick
	// otherwise — even when the primary write failed and the bytes only
	// landed on a secondary: placement is deterministic, so keeping the
	// index ring-derived means every reader computes the same location,
	// and the next reconcile pass restores the primary copy behind it.
	s.db.Upsert(labeldb.Entry{
		ImageID:      img.ID,
		Label:        label,
		ModelVersion: version,
		Location:     targets[0].ID,
	})
	s.met.uploads.Inc()
	s.met.confidence.Observe(confidence)
	return UploadResult{
		ImageID: img.ID, Label: label, Confidence: confidence,
		ModelVersion: version, StoreID: target.ID,
	}, nil
}

// Search proxies label queries to the index (the user-facing path of Fig 3).
func (s *Server) Search(label int) []uint64 {
	s.met.searches.Inc()
	return s.db.Search(label)
}
