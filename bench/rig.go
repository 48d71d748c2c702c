package main

// rig.go is the benchmark's only adapter to the program: every call into
// ndpipe/internal/* is made from this file, through the same public
// constructors and un-suffixed entry points service.Start composes
// (tuner.New/OpenState/AcceptStores/FineTune/OfflineInference,
// pipestore.New/OpenState/Ingest/Serve/ExtractRuns/OfflineInfer,
// inferserver.New, serve.New(DefaultOptions)). It never builds
// a wire.Message or reads one's fields — the messages ExtractRuns emits are
// carried as opaque pointers — and it uses neither the …Traced twins nor
// SetRegistry/SetTracer, so the planned refactors of those do not break it.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ndpipe/internal/core"
	"ndpipe/internal/dataset"
	"ndpipe/internal/delta"
	"ndpipe/internal/durable"
	"ndpipe/internal/ftdmp"
	"ndpipe/internal/inferserver"
	"ndpipe/internal/labeldb"
	"ndpipe/internal/modelstore"
	"ndpipe/internal/nn"
	"ndpipe/internal/photostore"
	"ndpipe/internal/pipestore"
	"ndpipe/internal/serve"
	"ndpipe/internal/telemetry"
	"ndpipe/internal/tensor"
	"ndpipe/internal/tuner"
	"ndpipe/internal/wire"
)

// photo is one upload as the program takes it; the rest of the benchmark
// treats it as opaque.
type photo = dataset.Image

// testSet is the held-out batch top-1 is evaluated on.
type testSet = *dataset.Batch

const (
	blobPool   = 256 // raw payloads shared by reference across photos
	uploadBase = 1 << 32
)

func modelConfig() core.ModelConfig { return core.DefaultModelConfig() }

func numClasses() int { return modelConfig().Classes }

func quietLogs() error { return telemetry.SetupLogging(os.Stderr, "warn", false) }

// inputs is everything a workload feeds the program, made from the seed
// before anything is timed.
type inputs struct {
	shards  [][]photo // the population each store holds before the run
	uploads []photo   // the upload sequence: warm-up, saturated pass, paced pass
	test    testSet
}

// makeInputs draws one photo world from seed. The first stores×perStore
// photos are the stored population, spread round-robin as the inference
// server would; the rest feed the uploads. With catalogue > 0 the upload
// sequence repeats content: each upload picks one of `catalogue` photos by
// Zipf(s) and carries it under a fresh ID, so only the content-hash cache can
// tell that it has been seen.
func makeInputs(seed int64, stores, perStore, uploads, catalogue int, zipfS float64) inputs {
	stored := stores * perStore
	distinct := uploads
	if catalogue > 0 {
		distinct = catalogue
	}
	wc := dataset.DefaultConfig(seed)
	wc.InitialImages = stored + distinct
	w := dataset.NewWorld(wc)
	all := w.Images()

	spec := dataset.DefaultJPEGSpec()
	pool := make([][]byte, blobPool)
	for i := range pool {
		pool[i] = dataset.Blob(uint64(seed)<<16+uint64(i), spec)
	}
	in := inputs{shards: make([][]photo, stores), test: w.FreshTestSet(2000)}
	for i, img := range all[:stored] {
		img.Raw = pool[i%blobPool]
		in.shards[i%stores] = append(in.shards[i%stores], img)
	}
	fresh := all[stored:]
	in.uploads = make([]photo, uploads)
	var zipf *rand.Zipf
	if catalogue > 0 {
		zipf = rand.NewZipf(rand.New(rand.NewSource(seed^0x5eed)), zipfS, 1, uint64(catalogue-1))
	}
	for i := range in.uploads {
		src := fresh[i%len(fresh)]
		if zipf != nil {
			src = fresh[zipf.Uint64()]
		}
		src.ID = uploadBase + uint64(i)
		src.Raw = pool[i%blobPool]
		in.uploads[i] = src
	}
	return in
}

// rigSpec sizes one deployment.
type rigSpec struct {
	stores int
	// stateDir, when set, gives the tuner and every store a state directory
	// under it, as service.Policy.StateDir does: the round's WAL record is
	// fsynced before the broadcast and each store persists the applied model
	// before it acks. Removed on close.
	stateDir string
}

// rig is the real system in one process: a Tuner, PipeStores joined to it by
// loopback TCP, the inference server and the serving gateway — composed the
// way service.Start composes them.
type rig struct {
	spec   rigSpec
	tn     *tuner.Node
	ln     net.Listener
	stores []*pipestore.Node
	conns  []*meterConn
	inf    *inferserver.Server
	gw     *serve.Gateway
	served sync.WaitGroup
	closed bool

	setup  time.Duration // whole construction
	ingest time.Duration // slowest store's Ingest of its population
	accept time.Duration // first dial → every store registered
}

func newRig(spec rigSpec, shards [][]photo, tl *timeline) (r *rig, err error) {
	start := time.Now()
	cfg := modelConfig()
	r = &rig{spec: spec}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.tn, err = tuner.New(cfg); err != nil {
		return nil, err
	}
	if spec.stateDir != "" {
		if _, err = r.tn.OpenState(filepath.Join(spec.stateDir, "tuner")); err != nil {
			return nil, err
		}
	}
	if r.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	accepted := make(chan error, 1)
	go func() { accepted <- r.tn.AcceptStores(r.ln, spec.stores) }()

	// Stores are separate machines in a deployment: each ingests its own
	// population concurrently.
	r.stores = make([]*pipestore.Node, spec.stores)
	ingests := make([]time.Duration, spec.stores)
	errs := make([]error, spec.stores)
	var wg sync.WaitGroup
	for i := range r.stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.stores[i], ingests[i], errs[i] = newStore(spec, i, shards[i])
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return nil, e
		}
		r.ingest = max(r.ingest, ingests[i])
	}
	// Dialled one after the other so registration order — and with it the
	// row order the Tuner trains on — is the same on every run.
	dialStart := time.Now()
	for i, ps := range r.stores {
		conn, derr := net.Dial("tcp", r.ln.Addr().String())
		if derr != nil {
			return nil, derr
		}
		mc := &meterConn{Conn: conn, id: i, tl: tl}
		r.conns = append(r.conns, mc)
		r.served.Add(1)
		go func(ps *pipestore.Node) {
			defer r.served.Done()
			_ = ps.Serve(mc) // ends when the Tuner closes the connection
		}(ps)
	}
	if err = <-accepted; err != nil {
		return nil, err
	}
	r.accept = time.Since(dialStart)
	if r.inf, err = inferserver.New(cfg, r.stores, r.tn.DB()); err != nil {
		return nil, err
	}
	if r.gw, err = serve.New(r.inf, serve.DefaultOptions()); err != nil {
		return nil, err
	}
	r.setup = time.Since(start)
	return r, nil
}

func newStore(spec rigSpec, i int, shard []photo) (*pipestore.Node, time.Duration, error) {
	id := fmt.Sprintf("ps-%d", i)
	ps, err := pipestore.New(id, modelConfig())
	if err != nil {
		return nil, 0, err
	}
	if spec.stateDir != "" {
		if _, err = ps.OpenState(filepath.Join(spec.stateDir, id)); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	if err = ps.Ingest(shard); err != nil {
		return nil, 0, err
	}
	return ps, time.Since(t0), nil
}

// close drains the gateway, disconnects the fleet, waits for every Serve
// loop to return and removes the rig's state directory.
func (r *rig) close() {
	if r.closed {
		return
	}
	r.closed = true
	if r.gw != nil {
		r.gw.Close()
	}
	if r.tn != nil {
		r.tn.Close()
	}
	if r.ln != nil {
		_ = r.ln.Close()
	}
	for _, c := range r.conns {
		_ = c.Close()
	}
	r.served.Wait()
	if r.spec.stateDir != "" {
		_ = os.RemoveAll(r.spec.stateDir)
	}
}

// upload sends one photo through the serving gateway, as service.Upload does.
func (r *rig) upload(p photo) (label int, err error) {
	res, err := r.gw.UploadImage(p)
	return res.Label, err
}

// roundReport is what the harness needs from one fine-tune round.
type roundReport struct {
	Version    int
	Epochs     int
	Images     int
	Degraded   bool
	ImagesLost int
	DeltaBlob  []byte
}

// fineTune runs one FT-DMP round with the epoch count pinned: Patience
// exceeds MaxEpochs, so the convergence rule cannot vary the work.
func (r *rig) fineTune(nrun, batch, epochsPerRun int) (roundReport, error) {
	opt := ftdmp.DefaultTrainOptions()
	opt.MaxEpochs = epochsPerRun
	opt.Patience = epochsPerRun + 1
	rep, err := r.tn.FineTune(nrun, batch, opt)
	return roundReport{Version: rep.ModelVersion, Epochs: rep.Epochs, Images: rep.Images,
		Degraded: rep.Degraded, ImagesLost: rep.ImagesLost, DeltaBlob: rep.DeltaBlob}, err
}

// deployToServing installs a round's delta on the inference server, the step
// service.Retrain takes between fine-tuning and relabelling.
func (r *rig) deployToServing(rep roundReport) error {
	return r.inf.ApplyDelta(rep.DeltaBlob, rep.Version)
}

// relabel runs near-data offline inference over every stored photo and
// returns how many labels came back.
func (r *rig) relabel(batch int) (int, error) {
	st, err := r.tn.OfflineInference(batch)
	return st.Total, err
}

func (r *rig) modelVersion() int { return r.tn.ModelVersion() }

func (r *rig) top1Pct(test testSet) float64 {
	top1, _ := r.tn.Evaluate(test, 1)
	return top1 * 100
}

func (r *rig) photosHeld() int {
	n := 0
	for _, ps := range r.stores {
		n += ps.NumImages()
	}
	return n
}

// labelCounts returns the label index's size and how many of its entries
// carry a label inside the classifier's range.
func (r *rig) labelCounts() (total, inRange int) {
	db := r.tn.DB()
	for l := 0; l < numClasses(); l++ {
		inRange += len(db.Search(l))
	}
	return db.Len(), inRange
}

// gatewayStats mirrors serve.Stats. The serve_* counters live in the
// process-wide registry, so a fresh gateway continues the previous one's
// counts; callers work with differences.
type gatewayStats struct {
	Admitted, Completed, Errors, Shed   int64
	Hits, Misses, Evictions, ResultHits int64
	Batches                             int64
}

func (r *rig) gatewayStats() gatewayStats {
	s := r.gw.Stats()
	return gatewayStats{Admitted: s.Admitted, Completed: s.Completed, Errors: s.Errors, Shed: s.Rejected(),
		Hits: s.CacheHits, Misses: s.CacheMisses, Evictions: s.CacheEvictions, ResultHits: s.CacheResultHits,
		Batches: s.Batches}
}

func (a gatewayStats) sub(b gatewayStats) gatewayStats {
	return gatewayStats{a.Admitted - b.Admitted, a.Completed - b.Completed, a.Errors - b.Errors, a.Shed - b.Shed,
		a.Hits - b.Hits, a.Misses - b.Misses, a.Evictions - b.Evictions, a.ResultHits - b.ResultHits,
		a.Batches - b.Batches}
}

// firstErr keeps the first error a probe's timed closures ran into.
type firstErr struct{ err error }

func (f *firstErr) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// ---- per-layer probes --------------------------------------------------
//
// Each probe times one layer's public functions directly, on the data the
// workload just ran with. They run once, in the traced run, after the
// workload's iterations.

// storeProbes times the near-data paths on one of the rig's own stores, with
// nothing on the wire: ExtractRuns with a capturing emit (read + inflate +
// backbone) and OfflineInfer. It returns the emitted messages, opaque, for
// the wire probe.
func (r *rig) storeProbes(m metricSet, nrun, batch int) ([]*wire.Message, error) {
	ps := r.stores[0]
	n := float64(ps.NumImages())
	var msgs []*wire.Message
	t0 := time.Now()
	if err := ps.ExtractRuns(nrun, batch, func(msg *wire.Message) error {
		msgs = append(msgs, msg)
		return nil
	}); err != nil {
		return nil, err
	}
	m.set("pipestore.extract_ips", n/time.Since(t0).Seconds(), "1/s")
	t0 = time.Now()
	labels, err := ps.OfflineInfer(batch)
	if err != nil {
		return nil, err
	}
	m.set("pipestore.offline_infer_ips", float64(len(labels))/time.Since(t0).Seconds(), "1/s")
	return msgs, nil
}

// wireProbes replays captured messages through a fresh codec over an
// in-memory stream: encode cost, decode cost, allocations and encoded size
// per message, with no socket and no peer.
func wireProbes(m metricSet, msgs []*wire.Message) error {
	if len(msgs) == 0 {
		return fmt.Errorf("wire probe: no messages captured")
	}
	n := float64(len(msgs))
	var enc, dec, allocs, size []float64
	for rep := 0; rep < 5; rep++ {
		var buf bytes.Buffer
		c := wire.NewCodec(&buf)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for _, msg := range msgs {
			if err := c.Send(msg); err != nil {
				return err
			}
		}
		enc = append(enc, time.Since(t0).Seconds()*1e6/n)
		size = append(size, float64(buf.Len())/n)
		t0 = time.Now()
		for range msgs {
			if _, err := c.Recv(); err != nil {
				return err
			}
		}
		dec = append(dec, time.Since(t0).Seconds()*1e6/n)
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/n)
	}
	m.set("wire.encode_us_per_msg", median(enc), "us")
	m.set("wire.decode_us_per_msg", median(dec), "us")
	m.set("wire.allocs_per_msg", median(allocs), "count")
	m.set("wire.bytes_per_msg", median(size), "B")
	return nil
}

// trainedDelta returns a classifier's initial snapshot, the snapshot after
// one SGD step on real features, and the encoded Check-N-Run delta between
// them — a delta of the size and density a round broadcasts.
func trainedDelta(in inputs) (base, next nn.Snapshot, blob []byte, err error) {
	cfg := modelConfig()
	feats, labels := embed(in.shards[0], 128)
	clf := cfg.NewClassifier()
	base = clf.TakeSnapshot()
	nn.TrainBatch(clf, nn.NewSGD(0.1, 0.9), feats, labels)
	next = clf.TakeSnapshot()
	blob, err = modelstore.New(base).Append(next)
	return base, next, blob, err
}

// embed runs the frozen backbone over the first n photos.
func embed(photos []photo, n int) (*tensor.Matrix, []int) {
	n = min(n, len(photos))
	b := dataset.BatchOfImages(photos[:n], modelConfig().InputDim)
	return modelConfig().NewBackbone().Forward(b.X).Clone(), b.Labels
}

// servingProbes times the online path below the gateway and the gateway's
// own share: sequential Upload, UploadBatch of 16, one caller through the
// gateway (minus the sequential Upload it wraps), and a delta install.
func servingProbes(m metricSet, in inputs) error {
	cfg := modelConfig()
	mk := func() (*inferserver.Server, error) {
		stores := make([]*pipestore.Node, 2)
		for i := range stores {
			ps, err := pipestore.New(fmt.Sprintf("probe-%d", i), cfg)
			if err != nil {
				return nil, err
			}
			stores[i] = ps
		}
		return inferserver.New(cfg, stores, nil)
	}
	distinct := distinctContent(in.uploads, 4800)
	const per = 800
	var failed firstErr
	note := failed.note

	inf, err := mk()
	if err != nil {
		return err
	}
	k := 0
	upload := medianMicros(3, func() {
		for _, p := range distinct[k : k+per] {
			_, err := inf.Upload(p)
			note(err)
		}
		k += per
	}) / per
	m.set("inferserver.upload_us", upload, "us")

	if inf, err = mk(); err != nil {
		return err
	}
	k = 0
	batched := medianMicros(3, func() {
		for lo := k; lo < k+per; lo += 16 {
			_, errs := inf.UploadBatch(distinct[lo : lo+16])
			for _, e := range errs {
				note(e)
			}
		}
		k += per
	}) / per
	m.set("inferserver.batch_us_per_photo", batched, "us")

	_, _, blob, err := trainedDelta(in)
	if err != nil {
		return err
	}
	v := 0
	m.set("inferserver.apply_delta_us", medianMicros(20, func() {
		v++
		note(inf.ApplyDelta(blob, v))
	}), "us")

	if inf, err = mk(); err != nil {
		return err
	}
	gw, err := serve.New(inf, serve.DefaultOptions())
	if err != nil {
		return err
	}
	defer gw.Close()
	k = 0
	through := medianMicros(3, func() {
		for _, p := range distinct[k+2400 : k+2400+per] {
			_, err := gw.UploadImage(p)
			note(err)
		}
		k += per
	}) / per
	m.set("serve.gateway_us", through-upload, "us")
	return failed.err
}

// distinctContent returns up to n uploads with pairwise different content
// (on the Zipf workload the sequence repeats; the probes below want the
// uncached path on every workload).
func distinctContent(uploads []photo, n int) []photo {
	seen := make(map[*float64]bool)
	var out []photo
	for _, p := range uploads {
		if key := &p.Feat[0]; !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	for len(out) < n { // small catalogue: repeat under fresh IDs
		p := out[len(out)%len(seen)]
		p.ID = uploadBase<<1 + uint64(len(out))
		out = append(out, p)
	}
	return out[:n]
}

// storageProbes times the object store alone, memory- and disk-backed, and
// a store's ingest and delta install.
func storageProbes(m metricSet, in inputs, dir string) error {
	photos := in.shards[0]
	if len(photos) > 200 {
		photos = photos[:200]
	}
	n := float64(len(photos))
	pre := make([][]byte, len(photos))
	for i, p := range photos {
		pre[i] = core.EncodeFloats(p.Feat)
	}
	var failed firstErr
	note := failed.note
	probeStore := func(prefix string, s photostore.ObjectStore) {
		m.set(prefix+"_put_us", medianMicros(1, func() {
			for i, p := range photos {
				s.Put(p.ID, p.Raw)
				note(s.PutPreproc(p.ID, pre[i]))
			}
		})/n, "us")
		m.set(prefix+"_get_us", medianMicros(5, func() {
			for _, p := range photos {
				_, err := s.GetPreprocCompressed(p.ID)
				note(err)
			}
		})/n, "us")
	}
	probeStore("photostore.mem", photostore.New())
	ds, err := photostore.OpenDir(filepath.Join(dir, "probe-photos"))
	if err != nil {
		return err
	}
	probeStore("photostore.disk", ds)
	m.set("photostore.verify_us", medianMicros(5, func() {
		for _, p := range photos {
			_, err := ds.Verify(p.ID)
			note(err)
		}
	})/n, "us")
	blobs := make([][]byte, len(photos))
	for i, p := range photos {
		blobs[i], err = ds.GetPreprocCompressed(p.ID)
		note(err)
	}
	m.set("photostore.inflate_us", medianMicros(5, func() {
		for _, b := range blobs {
			_, err := photostore.Inflate(b)
			note(err)
		}
	})/n, "us")
	u := ds.Usage()
	m.set("photostore.stored_bytes_per_photo", float64(u.RawBytes+u.PreprocBytes)/n, "B")

	_, _, blob, err := trainedDelta(in)
	if err != nil {
		return err
	}
	ps, err := pipestore.New("probe-apply", modelConfig())
	if err != nil {
		return err
	}
	if _, err := ps.OpenState(filepath.Join(dir, "probe-apply")); err != nil {
		return err
	}
	v := 0
	m.set("pipestore.apply_delta_us", medianMicros(10, func() {
		v++
		note(ps.ApplyDelta(blob, v))
	}), "us")
	return failed.err
}

// modelProbes times the compute layers: one training epoch per thousand
// images, a backbone forward, a training step, two matrix products.
func modelProbes(m metricSet, in inputs) error {
	cfg := modelConfig()
	feats, labels := embed(in.shards[0], 1000)
	opt := ftdmp.DefaultTrainOptions()
	opt.MaxEpochs, opt.Patience = 4, 5
	clf := cfg.NewClassifier()
	var failed firstErr
	epoch := medianMicros(3, func() {
		_, err := ftdmp.FineTuneRuns(clf, []*dataset.Batch{{X: feats, Labels: labels}}, opt)
		failed.note(err)
	}) / 1e3 / float64(opt.MaxEpochs) / (float64(feats.Rows) / 1000)
	m.set("ftdmp.epoch_ms_per_kimg", epoch, "ms")

	backbone := cfg.NewBackbone()
	x := dataset.BatchOfImages(in.shards[0][:min(128, len(in.shards[0]))], cfg.InputDim).X
	m.set("nn.backbone_us_per_image", medianMicros(9, func() {
		for i := 0; i < 20; i++ {
			backbone.Forward(x)
		}
	})/20/float64(x.Rows), "us")

	bf, bl := embed(in.shards[0], 128)
	sgd := nn.NewSGD(0.1, 0.9)
	m.set("nn.train_batch_us", medianMicros(9, func() {
		for i := 0; i < 20; i++ {
			nn.TrainBatch(clf, sgd, bf, bl)
		}
	})/20, "us")

	rng := rand.New(rand.NewSource(1))
	mat := func(r, c int) *tensor.Matrix {
		a := tensor.New(r, c)
		a.RandNormal(rng, 1)
		return a
	}
	a, b := mat(128, 32), mat(32, 128)
	m.set("tensor.matmul_128x32x128_us", medianMicros(9, func() {
		for i := 0; i < 50; i++ {
			tensor.MatMul(a, b)
		}
	})/50, "us")
	a, b = mat(256, 256), mat(256, 256)
	us := medianMicros(9, func() { tensor.MatMul(a, b) })
	m.set("tensor.matmul_256_gflops", 2*256*256*256/us/1e3, "GFLOP/s")
	return failed.err
}

// commitProbes times what a round's commit path is made of: diff + encode,
// decode + apply, the version archive, a journal append and an atomic file
// replace (both with their fsyncs, on the filesystem the state dirs use),
// and the label index.
func commitProbes(m metricSet, in inputs, dir string) error {
	base, next, blob, err := trainedDelta(in)
	if err != nil {
		return err
	}
	var failed firstErr
	note := failed.note
	m.set("delta.diff_encode_us", medianMicros(9, func() {
		d, err := delta.Diff(base, next, 0)
		note(err)
		_, err = d.Encode()
		note(err)
	}), "us")
	m.set("delta.decode_apply_us", medianMicros(9, func() {
		d, err := delta.Decode(blob)
		note(err)
		_, err = d.Apply(base)
		note(err)
	}), "us")
	m.set("modelstore.append_us", medianMicros(9, func() {
		_, err := modelstore.New(base).Append(next)
		note(err)
	}), "us")

	payload := bytes.Repeat([]byte{0xa5}, 64<<10)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	log, _, err := durable.Open(filepath.Join(dir, "probe.wal"), nil, func([]byte) error { return nil })
	if err != nil {
		return err
	}
	m.set("durable.append_us", medianMicros(15, func() { note(log.Append(payload)) }), "us")
	note(log.Close())
	snap := filepath.Join(dir, "probe.snap")
	m.set("durable.atomic_write_us", medianMicros(15, func() {
		note(durable.AtomicWriteFile(snap, payload, 0o644))
	}), "us")

	const labels = 20000
	db := labeldb.New()
	m.set("labeldb.upsert_us", medianMicros(1, func() {
		for i := 0; i < labels; i++ {
			db.Upsert(labeldb.Entry{ImageID: uint64(i), Label: i % 26, Location: "ps-0"})
		}
	})/labels, "us")
	refresh := make(map[uint64]int, labels)
	for i := 0; i < labels; i++ {
		refresh[uint64(i)] = (i + 1) % 26
	}
	v := 0
	m.set("labeldb.apply_refresh_us_per_label", medianMicros(5, func() {
		v++
		db.ApplyRefresh(refresh, v, "ps-0")
	})/labels, "us")
	return failed.err
}
