package inferserver

import (
	"fmt"
	"sync"
	"time"

	"ndpipe/internal/dataset"
	"ndpipe/internal/labeldb"
	"ndpipe/internal/tensor"
)

// BatchRequest is one photo in a batched inference call. Emb optionally
// carries a precomputed backbone embedding (length FeatureDim) — the serving
// gateway's content-hash cache passes embeddings back in so hot photos skip
// the frozen backbone entirely. A nil Emb means "compute it". WantEmb asks
// for the embedding actually used to come back in BatchResult.Emb (a private
// copy); callers that won't retain it leave WantEmb false and skip the
// per-photo copy.
type BatchRequest struct {
	Img     dataset.Image
	Emb     []float64
	WantEmb bool

	// HaveMemo offers a previously computed classifier result for this
	// content: MemoLabel/MemoConf as produced at model version MemoVersion.
	// InferBatch honors the memo only if the live model version still equals
	// MemoVersion — checked under the model lock, so a concurrently applied
	// classifier delta can never smuggle a stale label through. On a version
	// mismatch the row's label is recomputed (through the classifier, using
	// Emb when present), never served stale.
	HaveMemo    bool
	MemoLabel   int
	MemoConf    float64
	MemoVersion int
}

// BatchResult is the per-photo outcome of InferBatch. Exactly one of
// (Err == nil, Err != nil) holds per photo; a failed photo never aborts its
// batchmates. Emb is the backbone embedding actually used for this photo —
// a private copy the caller may retain (e.g. to populate a feature cache) —
// and is only populated when the request set WantEmb.
type BatchResult struct {
	UploadResult
	Emb []float64
	Err error
}

// InferBatch runs the online path for many photos with ONE batched forward
// pass: every photo needing an embedding goes through a single
// backbone.Forward over an M×InputDim matrix, cached embeddings are gathered
// alongside, and one clf.Forward labels the rows that don't carry a
// still-current memoized result (HaveMemo).
// Photo i's logits are bitwise-identical to what a sequential Upload(imgs[i])
// would produce: every layer in the stack is row-independent with a fixed
// per-element accumulation order (DESIGN.md S29), so batching — like
// parallelism — never changes output bits.
//
// Stores are assigned round-robin per valid photo in request order, matching
// the sequential loop. Ingest and label indexing fan out across goroutines
// (PipeStore Ingest and labeldb are concurrency-safe); validation and ingest
// failures are per-photo, counted in inferserver_upload_errors_total, and
// leave the other photos' results intact.
func (s *Server) InferBatch(reqs []BatchRequest) []BatchResult {
	t0 := time.Now()
	out := make([]BatchResult, len(reqs))
	defer func() {
		sec := time.Since(t0).Seconds()
		for range reqs {
			s.met.uploadLatency.Observe(sec)
		}
	}()

	// Validate per photo; partition valid photos into cached / to-compute.
	valid := make([]int, 0, len(reqs))
	miss := make([]int, 0, len(reqs))
	for i := range reqs {
		img := reqs[i].Img
		if len(img.Feat) != s.cfg.InputDim {
			out[i].Err = fmt.Errorf("inferserver: image %d has dim %d, want %d",
				img.ID, len(img.Feat), s.cfg.InputDim)
			s.met.errDim.Inc()
			continue
		}
		if reqs[i].Emb != nil && len(reqs[i].Emb) != s.cfg.FeatureDim {
			out[i].Err = fmt.Errorf("inferserver: image %d cached embedding has dim %d, want %d",
				img.ID, len(reqs[i].Emb), s.cfg.FeatureDim)
			s.met.errDim.Inc()
			continue
		}
		valid = append(valid, i)
		if reqs[i].Emb == nil {
			miss = append(miss, i)
		}
	}
	if len(valid) == 0 {
		return out
	}

	n := len(valid)
	emb := tensor.Get(n, s.cfg.FeatureDim)
	defer tensor.Put(emb)
	var xm *tensor.Matrix
	if len(miss) > 0 {
		xm = tensor.Get(len(miss), s.cfg.InputDim)
		defer tensor.Put(xm)
		for r, i := range miss {
			xm.SetRow(r, reqs[i].Img.Feat)
		}
	}
	// Row position of each valid photo inside emb/probs (-1 for invalid).
	pos := make([]int, len(reqs))
	for i := range pos {
		pos[i] = -1
	}
	for r, i := range valid {
		pos[i] = r
	}

	targets := make([]int, n) // store index per valid photo
	s.mu.Lock()
	version := s.version
	// Rows whose memoized result is still current skip the classifier; all
	// other rows are gathered into one head batch. The version gate lives
	// under the model lock, so an ApplyDelta can never race a memo into a
	// stale label.
	headPos := make([]int, n) // valid-row -> row in the head batch (-1: memo)
	headRows := make([]int, 0, n)
	for r, i := range valid {
		if reqs[i].HaveMemo && reqs[i].MemoVersion == version {
			headPos[r] = -1
			continue
		}
		headPos[r] = len(headRows)
		headRows = append(headRows, r)
	}
	if xm != nil {
		// One batched pass through the frozen backbone (the int8 replica when
		// quantized); copy each row out of the layer scratch into our own
		// matrix while the lock is held.
		f := s.forwardBackboneLocked(xm)
		for r, i := range miss {
			emb.SetRow(pos[i], f.Row(r))
		}
	}
	for _, i := range valid {
		// Caller-supplied embeddings are only materialized where they'll be
		// read: head rows, or rows whose embedding is echoed back.
		if reqs[i].Emb != nil && (headPos[pos[i]] >= 0 || reqs[i].WantEmb) {
			emb.SetRow(pos[i], reqs[i].Emb)
		}
	}
	// One batched classifier pass over the non-memo rows; ForwardInto copies
	// the logits out of the classifier's scratch under the lock
	// (clone-under-lock contract).
	var probs, hx *tensor.Matrix
	switch {
	case len(headRows) == n:
		probs = s.clf.ForwardInto(tensor.Get(n, s.cfg.Classes), emb)
	case len(headRows) > 0:
		hx = tensor.Get(len(headRows), s.cfg.FeatureDim)
		for k, r := range headRows {
			hx.SetRow(k, emb.Row(r))
		}
		probs = s.clf.ForwardInto(tensor.Get(len(headRows), s.cfg.Classes), hx)
	}
	// Replica-only copies per store under ring placement: these rows get a
	// second (third, ...) copy but their result/index work stays with the
	// primary replica's group.
	var replicaGroups map[int][]int
	if s.ring != nil {
		replicaGroups = make(map[int][]int)
		for r, i := range valid {
			reps := s.ring.Replicas(reqs[i].Img.ID)
			targets[r] = s.idx[reps[0]]
			for _, id := range reps[1:] {
				si := s.idx[id]
				replicaGroups[si] = append(replicaGroups[si], r)
			}
		}
	} else {
		for r := range valid {
			targets[r] = s.next % len(s.stores)
			s.next++
		}
	}
	s.uploads += n
	s.mu.Unlock()
	if hx != nil {
		tensor.Put(hx)
	}

	var labels []int
	if probs != nil {
		defer tensor.Put(probs)
		probs.SoftmaxRows()
		labels = probs.ArgmaxRows()
	}

	// Fan the storage path out grouped by destination store: one Ingest call
	// per store amortizes the per-call locking and accounting, and the
	// groups run concurrently (PipeStore Ingest and labeldb are
	// concurrency-safe). An ingest failure is attributed to every photo in
	// that store's group; the other groups' results stay intact.
	groups := make([][]int, len(s.stores)) // valid-row indices per store
	for r := range valid {
		groups[targets[r]] = append(groups[targets[r]], r)
	}
	var wg sync.WaitGroup
	for si, rows := range groups {
		if len(rows) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int, rows []int) {
			defer wg.Done()
			target := s.stores[si]
			batch := make([]dataset.Image, len(rows))
			for k, r := range rows {
				batch[k] = reqs[valid[r]].Img
			}
			if err := target.Ingest(batch); err != nil {
				for _, r := range rows {
					out[valid[r]].Err = err
					s.met.errIngest.Inc()
				}
				return
			}
			for _, r := range rows {
				i := valid[r]
				img := reqs[i].Img
				var label int
				var conf float64
				if hp := headPos[r]; hp >= 0 {
					label = labels[hp]
					conf = probs.At(hp, label)
				} else {
					// Memoized result, version-checked above: returned
					// verbatim, bitwise-identical to its original computation.
					label = reqs[i].MemoLabel
					conf = reqs[i].MemoConf
				}
				s.db.Upsert(labeldb.Entry{
					ImageID:      img.ID,
					Label:        label,
					ModelVersion: version,
					Location:     target.ID,
				})
				s.met.uploads.Inc()
				s.met.confidence.Observe(conf)
				var e []float64
				if reqs[i].WantEmb {
					e = make([]float64, s.cfg.FeatureDim)
					copy(e, emb.Row(r)) // pos[valid[r]] == r by construction
				}
				out[i] = BatchResult{
					UploadResult: UploadResult{
						ImageID: img.ID, Label: label, Confidence: conf,
						ModelVersion: version, StoreID: target.ID,
					},
					Emb: e,
				}
			}
		}(si, rows)
	}
	// Secondary replica writes run alongside the primary groups. A failed
	// replica write never fails the photo — the primary copy landed (or will
	// report its own error); the object is merely under-replicated until the
	// tuner's next reconcile pass (tuner.Reconcile) refills the missing
	// copy from holdings-vs-ring diffing (checksum scrubbing cannot see an
	// absent replica).
	for si, rows := range replicaGroups {
		wg.Add(1)
		go func(si int, rows []int) {
			defer wg.Done()
			batch := make([]dataset.Image, len(rows))
			for k, r := range rows {
				batch[k] = reqs[valid[r]].Img
			}
			if err := s.stores[si].Ingest(batch); err != nil {
				for range rows {
					s.met.errReplica.Inc()
				}
			}
		}(si, rows)
	}
	wg.Wait()
	return out
}

// UploadBatch ingests many photos through one batched forward pass and
// returns per-photo results and errors: results[i] and errs[i] describe
// imgs[i], and a failed photo (bad dimensions, ingest error) no longer
// discards or blocks the rest of the batch.
func (s *Server) UploadBatch(imgs []dataset.Image) ([]UploadResult, []error) {
	reqs := make([]BatchRequest, len(imgs))
	for i, img := range imgs {
		reqs[i] = BatchRequest{Img: img}
	}
	res := s.InferBatch(reqs)
	results := make([]UploadResult, len(imgs))
	errs := make([]error, len(imgs))
	for i := range res {
		results[i] = res[i].UploadResult
		errs[i] = res[i].Err
	}
	return results, errs
}
