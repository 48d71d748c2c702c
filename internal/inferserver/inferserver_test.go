package inferserver

import (
	"math"
	"testing"

	"ndpipe/internal/core"
	"ndpipe/internal/dataset"
	"ndpipe/internal/delta"
	"ndpipe/internal/labeldb"
	"ndpipe/internal/pipestore"
	"ndpipe/internal/placement"
	"ndpipe/internal/telemetry"
)

func rig(t *testing.T, nStores int) (*Server, []*pipestore.Node, *dataset.World) {
	t.Helper()
	cfg := core.DefaultModelConfig()
	wcfg := dataset.DefaultConfig(41)
	wcfg.InitialImages = 300
	world := dataset.NewWorld(wcfg)
	var stores []*pipestore.Node
	for i := 0; i < nStores; i++ {
		ps, err := pipestore.New(string(rune('a'+i)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, ps)
	}
	srv, err := New(cfg, stores, labeldb.New())
	if err != nil {
		t.Fatal(err)
	}
	return srv, stores, world
}

func TestUploadStoresLabelsAndIndexes(t *testing.T) {
	srv, stores, world := rig(t, 2)
	img := world.Images()[0]
	res, err := srv.Upload(img)
	if err != nil {
		t.Fatal(err)
	}
	if res.ImageID != img.ID || res.ModelVersion != 0 {
		t.Fatalf("result = %+v", res)
	}
	// The photo landed on a store with raw + preprocessed binary.
	found := false
	for _, ps := range stores {
		if ps.ID == res.StoreID {
			found = true
			if _, err := ps.Storage().GetRaw(img.ID); err != nil {
				t.Fatal("raw blob missing after upload")
			}
			if _, err := ps.Storage().GetPreprocCompressed(img.ID); err != nil {
				t.Fatal("preprocessed binary missing (+Offload broken)")
			}
		}
	}
	if !found {
		t.Fatalf("unknown store %q", res.StoreID)
	}
	// And it is indexed for search.
	e, err := srv.DB().Get(img.ID)
	if err != nil {
		t.Fatal(err)
	}
	if e.Label != res.Label || e.Location != res.StoreID {
		t.Fatalf("index entry %+v vs result %+v", e, res)
	}
	if ids := srv.Search(res.Label); len(ids) == 0 {
		t.Fatal("search must find the uploaded photo")
	}
}

func TestUploadBatchRoundRobins(t *testing.T) {
	srv, stores, world := rig(t, 3)
	res, errs := srv.UploadBatch(world.Images()[:99])
	for i, err := range errs {
		if err != nil {
			t.Fatalf("photo %d: %v", i, err)
		}
	}
	if len(res) != 99 || srv.Uploads() != 99 {
		t.Fatalf("uploaded %d", len(res))
	}
	for _, ps := range stores {
		if n := ps.NumImages(); n != 33 {
			t.Fatalf("store %s holds %d, want 33 (round-robin)", ps.ID, n)
		}
	}
}

// One bad photo in a batch must not discard its batchmates: every other
// photo is ingested, indexed, and reported, and the failure is attributed to
// exactly the offending index (and counted in /metrics).
func TestUploadBatchPartialFailure(t *testing.T) {
	srv, _, world := rig(t, 2)
	errsBefore := telemetry.Default.Counter(
		telemetry.Labeled("inferserver_upload_errors_total", "reason", "dim")).Value()
	imgs := append([]dataset.Image(nil), world.Images()[:7]...)
	imgs[3] = dataset.Image{ID: 777, Feat: []float64{1, 2}} // wrong dim
	res, errs := srv.UploadBatch(imgs)
	if len(res) != 7 || len(errs) != 7 {
		t.Fatalf("got %d results, %d errs", len(res), len(errs))
	}
	for i := range imgs {
		if i == 3 {
			if errs[i] == nil {
				t.Fatal("bad photo must carry its own error")
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("good photo %d failed: %v", i, errs[i])
		}
		if res[i].ImageID != imgs[i].ID {
			t.Fatalf("photo %d result = %+v", i, res[i])
		}
		if _, err := srv.DB().Get(imgs[i].ID); err != nil {
			t.Fatalf("good photo %d not indexed", i)
		}
	}
	if srv.Uploads() != 6 {
		t.Fatalf("uploads = %d, want 6", srv.Uploads())
	}
	got := telemetry.Default.Counter(
		telemetry.Labeled("inferserver_upload_errors_total", "reason", "dim")).Value()
	if got-errsBefore != 1 {
		t.Fatalf("error counter moved by %d, want 1", got-errsBefore)
	}
}

// Batched inference must be bitwise-identical to the sequential Upload loop:
// same labels, same confidence bits, same round-robin placement.
func TestInferBatchMatchesSequentialBitwise(t *testing.T) {
	seqSrv, _, world := rig(t, 2)
	batSrv, _, _ := rig(t, 2)
	imgs := world.Images()[:40]

	want := make([]UploadResult, len(imgs))
	for i, img := range imgs {
		r, err := seqSrv.Upload(img)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	got, errs := batSrv.UploadBatch(imgs)
	for i := range imgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i].Label != want[i].Label {
			t.Fatalf("photo %d label %d != sequential %d", i, got[i].Label, want[i].Label)
		}
		if math.Float64bits(got[i].Confidence) != math.Float64bits(want[i].Confidence) {
			t.Fatalf("photo %d confidence %x != sequential %x", i,
				math.Float64bits(got[i].Confidence), math.Float64bits(want[i].Confidence))
		}
		if got[i].StoreID != want[i].StoreID {
			t.Fatalf("photo %d store %s != sequential %s", i, got[i].StoreID, want[i].StoreID)
		}
	}
}

// A cached embedding fed back through InferBatch must reproduce the
// cache-miss result exactly — the frozen backbone makes hit and miss
// bitwise-interchangeable.
func TestInferBatchCachedEmbeddingBitwise(t *testing.T) {
	srv, _, world := rig(t, 1)
	img := world.Images()[5]
	first := srv.InferBatch([]BatchRequest{{Img: img, WantEmb: true}})
	if first[0].Err != nil {
		t.Fatal(first[0].Err)
	}
	if len(first[0].Emb) == 0 {
		t.Fatal("WantEmb must return the embedding")
	}
	replay := img
	replay.ID = 424242 // same content, new upload
	second := srv.InferBatch([]BatchRequest{{Img: replay, Emb: first[0].Emb}})
	if second[0].Err != nil {
		t.Fatal(second[0].Err)
	}
	if second[0].Label != first[0].Label ||
		math.Float64bits(second[0].Confidence) != math.Float64bits(first[0].Confidence) {
		t.Fatalf("cache-hit result %+v != miss result %+v", second[0], first[0])
	}
	bad := srv.InferBatch([]BatchRequest{{Img: img, Emb: []float64{1}}})
	if bad[0].Err == nil {
		t.Fatal("wrong-dim cached embedding must error")
	}
}

// A memoized classifier result is returned verbatim while its model version
// is current, skipping the head; once the version moves on, the memo is
// ignored and the row is recomputed at the live version.
func TestInferBatchMemoVersionGate(t *testing.T) {
	srv, _, world := rig(t, 1)
	img := world.Images()[6]
	first := srv.InferBatch([]BatchRequest{{Img: img, WantEmb: true}})
	if first[0].Err != nil {
		t.Fatal(first[0].Err)
	}

	// Current version: the memo rides through untouched — visible because we
	// plant a sentinel confidence no real softmax would produce.
	memo := img
	memo.ID = 555555
	hit := srv.InferBatch([]BatchRequest{{
		Img: memo, Emb: first[0].Emb,
		HaveMemo: true, MemoLabel: first[0].Label, MemoConf: 0.123456,
		MemoVersion: first[0].ModelVersion,
	}})
	if hit[0].Err != nil {
		t.Fatal(hit[0].Err)
	}
	if hit[0].Label != first[0].Label || hit[0].Confidence != 0.123456 {
		t.Fatalf("memo not honored: %+v", hit[0])
	}
	if hit[0].ModelVersion != first[0].ModelVersion {
		t.Fatalf("memo result labeled v%d, want v%d", hit[0].ModelVersion, first[0].ModelVersion)
	}

	// Stale version: the memo must be discarded and the head recomputed —
	// bitwise-equal to a plain upload of the same content.
	stale := img
	stale.ID = 666666
	re := srv.InferBatch([]BatchRequest{{
		Img: stale, Emb: first[0].Emb,
		HaveMemo: true, MemoLabel: first[0].Label, MemoConf: 0.123456,
		MemoVersion: first[0].ModelVersion - 1,
	}})
	if re[0].Err != nil {
		t.Fatal(re[0].Err)
	}
	if re[0].Confidence == 0.123456 {
		t.Fatal("stale memo served verbatim")
	}
	if re[0].Label != first[0].Label ||
		math.Float64bits(re[0].Confidence) != math.Float64bits(first[0].Confidence) {
		t.Fatalf("recomputed row (%d, %x) != fresh computation (%d, %x)",
			re[0].Label, math.Float64bits(re[0].Confidence),
			first[0].Label, math.Float64bits(first[0].Confidence))
	}
}

func TestApplyDeltaChangesOnlineLabels(t *testing.T) {
	srv, _, world := rig(t, 1)
	cfg := core.DefaultModelConfig()

	// Label a probe image with v0.
	img := world.Images()[1]
	before, err := srv.Upload(img)
	if err != nil {
		t.Fatal(err)
	}

	// Produce a v1 delta that substantially changes the classifier.
	clf := cfg.NewClassifier()
	base := clf.TakeSnapshot()
	for _, p := range clf.TrainableParams() {
		for i := range p.W.Data {
			p.W.Data[i] = -p.W.Data[i] + 0.3
		}
	}
	d, err := delta.Diff(base, clf.TakeSnapshot(), 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ApplyDelta(blob, 1); err != nil {
		t.Fatal(err)
	}
	if srv.ModelVersion() != 1 {
		t.Fatalf("version = %d", srv.ModelVersion())
	}
	// Upload the same content again (new ID): the label's model version
	// must be v1 now.
	img2 := img
	img2.ID = 999999
	after, err := srv.Upload(img2)
	if err != nil {
		t.Fatal(err)
	}
	if after.ModelVersion != 1 {
		t.Fatalf("new upload labeled by v%d", after.ModelVersion)
	}
	_ = before
}

func TestUploadValidation(t *testing.T) {
	srv, _, _ := rig(t, 1)
	if _, err := srv.Upload(dataset.Image{ID: 1, Feat: []float64{1}}); err == nil {
		t.Fatal("wrong input dim must error")
	}
	cfg := core.DefaultModelConfig()
	if _, err := New(cfg, nil, nil); err == nil {
		t.Fatal("no stores must error")
	}
	bad := cfg
	bad.InputDim = 0
	if _, err := New(bad, nil, nil); err == nil {
		t.Fatal("invalid config must error")
	}
}

func TestGarbageDeltaRejected(t *testing.T) {
	srv, _, _ := rig(t, 1)
	if err := srv.ApplyDelta([]byte{1, 2, 3}, 5); err == nil {
		t.Fatal("garbage delta must fail")
	}
	if srv.ModelVersion() != 0 {
		t.Fatal("failed delta must not bump version")
	}
}

// With replication enabled, every upload must land on all R ring replicas —
// both raw bytes and the preprocessed binary — and the label index must point
// at the primary replica.
func TestUploadReplicatesToAllReplicas(t *testing.T) {
	srv, stores, world := rig(t, 3)
	if err := srv.EnableReplication(2); err != nil {
		t.Fatal(err)
	}
	if srv.Replication() != 2 {
		t.Fatalf("Replication() = %d, want 2", srv.Replication())
	}
	byID := map[string]*pipestore.Node{}
	for _, ps := range stores {
		byID[ps.ID] = ps
	}
	ring, err := placement.New([]string{stores[0].ID, stores[1].ID, stores[2].ID}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range world.Images()[:40] {
		res, err := srv.Upload(img)
		if err != nil {
			t.Fatal(err)
		}
		reps := ring.Replicas(img.ID)
		if res.StoreID != reps[0] {
			t.Fatalf("image %d: Location = %s, want primary %s", img.ID, res.StoreID, reps[0])
		}
		for _, id := range reps {
			ps := byID[id]
			if _, err := ps.Storage().GetRaw(img.ID); err != nil {
				t.Fatalf("image %d: raw missing on replica %s: %v", img.ID, id, err)
			}
			if _, err := ps.Storage().GetPreprocCompressed(img.ID); err != nil {
				t.Fatalf("image %d: preproc missing on replica %s: %v", img.ID, id, err)
			}
		}
	}
}

// When the primary replica's write fails but a secondary lands, the upload
// succeeds and the label index still records the ring primary as Location:
// placement is deterministic, so the index stays ring-derived and the
// tuner's reconcile pass refills the primary copy behind it. StoreID in
// the result reports the replica that actually took the bytes.
func TestUploadLocationStaysRingPrimaryOnPrimaryWriteFailure(t *testing.T) {
	cfg := core.DefaultModelConfig()
	wcfg := dataset.DefaultConfig(43)
	wcfg.InitialImages = 60
	world := dataset.NewWorld(wcfg)
	ids := []string{"a", "b", "c"}
	ring, err := placement.New(ids, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a photo whose ring primary is store "a", then build "a" with a
	// mismatched InputDim so its Ingest rejects every write while the other
	// replicas accept normally.
	var img dataset.Image
	found := false
	for _, im := range world.Images() {
		if ring.Replicas(im.ID)[0] == "a" {
			img, found = im, true
			break
		}
	}
	if !found {
		t.Fatal("no image with primary replica on store a")
	}
	badCfg := cfg
	badCfg.InputDim = cfg.InputDim + 1
	var stores []*pipestore.Node
	byID := map[string]*pipestore.Node{}
	for _, id := range ids {
		c := cfg
		if id == "a" {
			c = badCfg
		}
		ps, err := pipestore.New(id, c)
		if err != nil {
			t.Fatal(err)
		}
		stores = append(stores, ps)
		byID[id] = ps
	}
	srv, err := New(cfg, stores, labeldb.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableReplication(2); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Upload(img)
	if err != nil {
		t.Fatalf("upload must survive a failed primary write: %v", err)
	}
	reps := ring.Replicas(img.ID)
	if res.StoreID != reps[1] {
		t.Fatalf("StoreID = %s, want surviving secondary %s", res.StoreID, reps[1])
	}
	e, err := srv.DB().Get(img.ID)
	if err != nil {
		t.Fatal(err)
	}
	if e.Location != reps[0] {
		t.Fatalf("Location = %s, want ring primary %s even though its write failed", e.Location, reps[0])
	}
	// The bytes really are on the secondary, and absent from the primary.
	if _, err := byID[reps[1]].Storage().GetRaw(img.ID); err != nil {
		t.Fatalf("raw missing on secondary %s: %v", reps[1], err)
	}
	if _, err := byID[reps[0]].Storage().GetRaw(img.ID); err == nil {
		t.Fatalf("primary %s unexpectedly holds the photo", reps[0])
	}
}

// The batched path must produce the same placement as sequential uploads:
// every photo on all R replicas, result.StoreID = primary.
func TestInferBatchReplicates(t *testing.T) {
	srv, stores, world := rig(t, 3)
	if err := srv.EnableReplication(2); err != nil {
		t.Fatal(err)
	}
	imgs := world.Images()[:60]
	results, errs := srv.UploadBatch(imgs)
	ring, err := placement.New([]string{stores[0].ID, stores[1].ID, stores[2].ID}, 2)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*pipestore.Node{}
	for _, ps := range stores {
		byID[ps.ID] = ps
	}
	for i, img := range imgs {
		if errs[i] != nil {
			t.Fatalf("image %d: %v", img.ID, errs[i])
		}
		reps := ring.Replicas(img.ID)
		if results[i].StoreID != reps[0] {
			t.Fatalf("image %d: StoreID = %s, want primary %s", img.ID, results[i].StoreID, reps[0])
		}
		for _, id := range reps {
			if _, err := byID[id].Storage().GetRaw(img.ID); err != nil {
				t.Fatalf("image %d: raw missing on replica %s: %v", img.ID, id, err)
			}
		}
	}
}
