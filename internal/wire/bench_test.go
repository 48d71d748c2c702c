package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

// benchCodec times one Send and one Recv of msg per iteration over an
// in-memory stream: ns/op, B/op and allocs/op cover both, wire-bytes/op is
// the frame's size.
func benchCodec(b *testing.B, msg *Message) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	if err := c.Send(msg); err != nil {
		b.Fatal(err)
	}
	frameLen := buf.Len()
	if _, err := c.Recv(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(frameLen), "wire-bytes/op")
}

// A 128×32 feature batch, as ExtractRuns emits with the default model.
func BenchmarkCodecFeatures(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := make([]float64, 128*32)
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	x, err := AppendHalves(nil, f)
	if err != nil {
		b.Fatal(err)
	}
	msg := &Message{Type: MsgFeatures, StoreID: "ps-0", Trace: 1 << 60, Parent: 1 << 59, Epoch: 3,
		Run: 1, Rows: 128, Cols: 32, X: x, Labels: make([]int, 128), IDs: make([]uint64, 128)}
	for i := range msg.IDs {
		msg.Labels[i] = rng.Intn(26)
		msg.IDs[i] = uint64(2 * i)
	}
	benchCodec(b, msg)
}

// A 62 KB dense classifier delta.
func BenchmarkCodecDelta(b *testing.B) {
	blob := make([]byte, 62<<10)
	rand.New(rand.NewSource(2)).Read(blob)
	benchCodec(b, &Message{Type: MsgModelDelta, Trace: 1 << 60, Parent: 1 << 59, Epoch: 3,
		Blob: blob, ModelVersion: 4})
}

// A 1 000-label offline-inference reply from a store holding every other ID.
func BenchmarkCodecLabels(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	labels := make(map[uint64]int, 1000)
	for i := 0; i < 1000; i++ {
		labels[uint64(2*i)] = rng.Intn(26)
	}
	benchCodec(b, &Message{Type: MsgLabels, StoreID: "ps-0", Epoch: 4, LabelsOut: labels, ModelVersion: 4})
}
