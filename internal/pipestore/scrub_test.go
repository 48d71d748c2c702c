package pipestore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ndpipe/internal/core"
	"ndpipe/internal/dataset"
	"ndpipe/internal/durable"
	"ndpipe/internal/photostore"
	"ndpipe/internal/wire"
)

// diskStore builds a disk-backed node holding the whole world, returning the
// photo directory so tests can corrupt at-rest object files directly.
func diskStore(t *testing.T, id string, images int) (*Node, *dataset.World, string) {
	t.Helper()
	cfg := core.DefaultModelConfig()
	wcfg := dataset.DefaultConfig(31)
	wcfg.InitialImages = images
	world := dataset.NewWorld(wcfg)
	dir := filepath.Join(t.TempDir(), "photos")
	photos, err := photostore.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewWithStorage(id, cfg, photos)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Ingest(world.Images()); err != nil {
		t.Fatal(err)
	}
	return n, world, dir
}

func flipRawByte(t *testing.T, dir string, id uint64) {
	t.Helper()
	path := filepath.Join(dir, "raw", fmt.Sprintf("%d", id))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x80
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A scrub pass detects an at-rest bit-flip and quarantines the object; the
// store never repairs itself — the tuner's Reconcile pass refills it — so a
// quarantined object is never served in the meantime.
func TestScrubWithoutSourceQuarantinesOnly(t *testing.T) {
	a, world, dir := diskStore(t, "scrub-b", 40)
	id := world.Images()[3].ID
	flipRawByte(t, dir, id)

	checked, corrupt := a.ScrubOnce(0)
	if checked != 40 || corrupt != 1 {
		t.Fatalf("checked=%d corrupt=%d, want 40/1", checked, corrupt)
	}
	if q := a.Storage().Quarantined(); len(q) != 1 || q[0] != id {
		t.Fatalf("quarantined = %v, want [%d]", q, id)
	}
	if _, err := a.Storage().GetRaw(id); err == nil {
		t.Fatal("quarantined object served")
	}
}

// Bounded-rate scrubbing covers the whole store across successive ticks:
// the cursor resumes and wraps instead of rescanning the same prefix.
func TestScrubCursorResumesAndWraps(t *testing.T) {
	n, _ := newStore(t, 50)
	seen := 0
	for i := 0; i < 5; i++ {
		checked, _ := n.ScrubOnce(10)
		seen += checked
	}
	if seen != 50 {
		t.Fatalf("5 ticks of 10 checked %d objects, want 50", seen)
	}
	// Next tick wraps to the beginning rather than stalling at the end.
	if checked, _ := n.ScrubOnce(10); checked != 10 {
		t.Fatalf("post-wrap tick checked %d, want 10", checked)
	}
}

// IngestReplica rejects payloads whose checksums do not match — a flip
// anywhere between the producer and here must never reach storage.
func TestIngestReplicaRejectsCorruptPayload(t *testing.T) {
	n, world := newStore(t, 20)
	fresh := dataset.NewWorld(func() dataset.Config {
		c := dataset.DefaultConfig(99)
		c.InitialImages = 1
		return c
	}())
	img := fresh.Images()[0]
	img.ID = world.Images()[19].ID + 1000 // not present locally
	od := wire.ObjectData{
		ID:    img.ID,
		Label: img.Class,
		Day:   img.Day,
		Raw:   dataset.Blob(img.ID, dataset.DefaultJPEGSpec()),
		Pre:   core.AppendFloats(nil, img.Feat),
	}
	od.RawCRC = durable.Checksum(od.Raw) ^ 1 // corrupt on purpose
	od.PreCRC = durable.Checksum(od.Pre)
	accepted, err := n.IngestReplica([]wire.ObjectData{od})
	if accepted != 0 || err == nil {
		t.Fatalf("corrupt replica accepted: accepted=%d err=%v", accepted, err)
	}
	if _, gerr := n.Storage().GetRaw(od.ID); gerr == nil {
		t.Fatal("corrupt replica reached storage")
	}

	// The same payload with honest checksums is accepted and extractable.
	od.RawCRC = durable.Checksum(od.Raw)
	accepted, err = n.IngestReplica([]wire.ObjectData{od})
	if accepted != 1 || err != nil {
		t.Fatalf("healthy replica rejected: accepted=%d err=%v", accepted, err)
	}
	if _, gerr := n.Storage().GetRaw(od.ID); gerr != nil {
		t.Fatalf("accepted replica unreadable: %v", gerr)
	}
}
