package pipestore

import (
	"errors"
	"math"
	"testing"

	"ndpipe/internal/core"
	"ndpipe/internal/dataset"
	"ndpipe/internal/delta"
	"ndpipe/internal/nn"
	"ndpipe/internal/photostore"
	"ndpipe/internal/wire"
)

func newStore(t *testing.T, images int) (*Node, *dataset.World) {
	t.Helper()
	cfg := core.DefaultModelConfig()
	wcfg := dataset.DefaultConfig(31)
	wcfg.InitialImages = images
	world := dataset.NewWorld(wcfg)
	n, err := New("ps-test", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Ingest(world.Images()); err != nil {
		t.Fatal(err)
	}
	return n, world
}

func TestIngestStoresRawAndPreproc(t *testing.T) {
	n, world := newStore(t, 200)
	if n.NumImages() != 200 {
		t.Fatalf("NumImages = %d", n.NumImages())
	}
	img := world.Images()[0]
	raw, err := n.Storage().GetRaw(img.ID)
	if err != nil {
		t.Fatal(err)
	}
	if dataset.BlobID(raw) != img.ID {
		t.Fatal("raw blob not stamped with its ID")
	}
	pre, err := n.Storage().GetPreproc(img.ID)
	if err != nil {
		t.Fatal(err)
	}
	feat, err := core.DecodeFloats(pre)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range img.Feat {
		if feat[i] != v {
			t.Fatal("preprocessed binary corrupted")
		}
	}
	u := n.Storage().Usage()
	if u.OverheadFraction <= 0 {
		t.Fatal("offloaded preprocessing must add storage overhead")
	}
}

func TestIngestRejectsWrongDim(t *testing.T) {
	cfg := core.DefaultModelConfig()
	n, err := New("x", cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := dataset.Image{ID: 1, Feat: []float64{1, 2}}
	if err := n.Ingest([]dataset.Image{bad}); err == nil {
		t.Fatal("wrong feature dim must be rejected")
	}
}

func TestExtractRunsCoversShardOnce(t *testing.T) {
	n, world := newStore(t, 300)
	seen := map[uint64]int{}
	var batches int
	finalsByRun := map[int]int{}
	err := n.ExtractRuns(3, 64, func(m *wire.Message) error {
		batches++
		if m.Type != wire.MsgFeatures || m.Cols != core.DefaultModelConfig().FeatureDim {
			t.Fatalf("bad message: %+v", m.Type)
		}
		if m.Rows != len(m.Labels) || m.Rows != len(m.IDs) {
			t.Fatal("inconsistent batch metadata")
		}
		for _, id := range m.IDs {
			seen[id]++
		}
		if m.Final {
			finalsByRun[m.Run]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != world.NumImages() {
		t.Fatalf("extracted %d unique images of %d", len(seen), world.NumImages())
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("image %d extracted %d times", id, c)
		}
	}
	for r := 0; r < 3; r++ {
		if finalsByRun[r] != 1 {
			t.Fatalf("run %d had %d final batches", r, finalsByRun[r])
		}
	}
	if batches < 3 {
		t.Fatalf("expected multiple batches, got %d", batches)
	}
}

func TestExtractFeaturesMatchBackbone(t *testing.T) {
	n, world := newStore(t, 50)
	cfg := core.DefaultModelConfig()
	backbone := cfg.NewBackbone()
	byID := map[uint64]dataset.Image{}
	for _, img := range world.Images() {
		byID[img.ID] = img
	}
	err := n.ExtractRuns(1, 16, func(m *wire.Message) error {
		for i := 0; i < m.Rows; i++ {
			img := byID[m.IDs[i]]
			b := dataset.BatchOfImages([]dataset.Image{img}, cfg.InputDim)
			want := backbone.Forward(b.X)
			for j := 0; j < m.Cols; j++ {
				// What ships is the backbone's output rounded to binary16.
				if h, ok := wire.HalfFromFloat64(want.At(0, j)); !ok || m.X[i*m.Cols+j] != h {
					t.Fatalf("feature mismatch for image %d", img.ID)
				}
			}
			if m.Labels[i] != img.Class {
				t.Fatal("label mismatch")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeltaUpdatesClassifier(t *testing.T) {
	n, _ := newStore(t, 20)
	cfg := core.DefaultModelConfig()
	// Simulate the tuner: train a replica, diff against v0.
	clf := cfg.NewClassifier()
	base := clf.TakeSnapshot()
	for _, p := range clf.TrainableParams() {
		p.W.Data[0] += 1.5
	}
	d, err := delta.Diff(base, clf.TakeSnapshot(), 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := n.ApplyDelta(blob, 7); err != nil {
		t.Fatal(err)
	}
	if n.ModelVersion() != 7 {
		t.Fatalf("version %d, want 7", n.ModelVersion())
	}
	if err := n.ApplyDelta([]byte{1, 2, 3}, 8); err == nil {
		t.Fatal("garbage delta must fail")
	}
	if n.ModelVersion() != 7 {
		t.Fatal("failed delta must not bump the version")
	}
}

func TestOfflineInferLabelsEveryImage(t *testing.T) {
	n, world := newStore(t, 150)
	labels, err := n.OfflineInfer(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != world.NumImages() {
		t.Fatalf("labeled %d of %d", len(labels), world.NumImages())
	}
	cfg := core.DefaultModelConfig()
	for _, l := range labels {
		if l < 0 || l >= cfg.Classes {
			t.Fatalf("label %d out of range", l)
		}
	}
	// Deterministic: same model, same labels.
	again, err := n.OfflineInfer(64)
	if err != nil {
		t.Fatal(err)
	}
	for id, l := range labels {
		if again[id] != l {
			t.Fatalf("nondeterministic label for %d", id)
		}
	}
}

func TestOfflineInferMatchesDirectForward(t *testing.T) {
	n, world := newStore(t, 40)
	cfg := core.DefaultModelConfig()
	full := nn.Stack(cfg.NewBackbone(), cfg.NewClassifier())
	labels, err := n.OfflineInfer(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range world.Images()[:10] {
		b := dataset.BatchOfImages([]dataset.Image{img}, cfg.InputDim)
		want := full.Forward(b.X).ArgmaxRows()[0]
		if labels[img.ID] != want {
			t.Fatalf("image %d: pipeline label %d != direct %d", img.ID, labels[img.ID], want)
		}
	}
}

func TestExtractRunsEmptyShard(t *testing.T) {
	n, err := New("empty", core.DefaultModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.ExtractRuns(1, 8, func(*wire.Message) error { return nil }); err == nil {
		t.Fatal("empty shard must error")
	}
}

func TestDiskBackedPipeStore(t *testing.T) {
	cfg := core.DefaultModelConfig()
	wcfg := dataset.DefaultConfig(33)
	wcfg.InitialImages = 120
	world := dataset.NewWorld(wcfg)
	disk, err := photostore.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewWithStorage("disk-store", cfg, disk)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Ingest(world.Images()); err != nil {
		t.Fatal(err)
	}
	// Feature extraction reads compressed binaries off the real filesystem.
	seen := 0
	err = n.ExtractRuns(2, 32, func(m *wire.Message) error {
		seen += m.Rows
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 120 {
		t.Fatalf("extracted %d of 120", seen)
	}
	labels, err := n.OfflineInfer(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 120 {
		t.Fatalf("labeled %d of 120", len(labels))
	}
	if _, err := NewWithStorage("x", cfg, nil); err == nil {
		t.Fatal("nil store must be rejected")
	}
}

// A photo whose embedding overflows to infinity (or decays to NaN) fails its
// batch at the store: the error names the cause and nothing is emitted.
func TestExtractRejectsNonFiniteFeatures(t *testing.T) {
	n, world := newStore(t, 20)
	bad := world.Images()[0]
	bad.ID = 1 << 40
	bad.Feat = make([]float64, len(bad.Feat))
	for i := range bad.Feat {
		bad.Feat[i] = math.MaxFloat64
	}
	if err := n.Ingest([]dataset.Image{bad}); err != nil {
		t.Fatal(err)
	}
	emitted := 0
	err := n.ExtractRuns(1, 64, func(*wire.Message) error { emitted++; return nil })
	if !errors.Is(err, wire.ErrNonFinite) {
		t.Fatalf("ExtractRuns = %v, want wire.ErrNonFinite", err)
	}
	if emitted != 0 {
		t.Fatalf("%d messages emitted from a batch holding a non-finite feature", emitted)
	}
}
