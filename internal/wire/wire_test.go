package wire

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"

	"ndpipe/internal/telemetry"
)

// pipeCodec builds two codecs over an in-memory duplex pipe.
func pipeCodec() (*Codec, *Codec, func()) {
	a, b := net.Pipe()
	return NewCodec(a), NewCodec(b), func() { a.Close(); b.Close() }
}

func TestUntypedMessageRejected(t *testing.T) {
	ca, _, done := pipeCodec()
	defer done()
	if err := ca.Send(&Message{}); err == nil {
		t.Fatal("untyped message must be rejected")
	}
	if err := ca.Send(&Message{Type: lastMsgType + 1}); err == nil {
		t.Fatal("a type with no layout must be rejected by the sender")
	}
}

func TestSendError(t *testing.T) {
	ca, cb, done := pipeCodec()
	defer done()
	go func() {
		_ = ca.SendError("ps-2", io.ErrUnexpectedEOF)
		_ = ca.SendError("ps-3", nil)
	}()
	got, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgError || got.StoreID != "ps-2" || got.Err == "" {
		t.Fatalf("error message = %+v", got)
	}
	if got, err = cb.Recv(); err != nil || got.Err != "unknown error" {
		t.Fatalf("nil-error report = %+v (err %v), want Err=%q", got, err, "unknown error")
	}
}

// Two goroutines hammer Send on one codec while a reader drains: with -race
// this proves write serialization, and checking every payload proves frames
// are never interleaved or corrupted.
func TestConcurrentSendersPayloadIntegrity(t *testing.T) {
	ca, cb, done := pipeCodec()
	defer done()
	const n = 100
	payload := func(seq int) []Half {
		x := make([]Half, 32)
		for i := range x {
			x[i] = Half(seq*32+i) & halfMax
		}
		return x
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				seq := w*n + i
				if err := ca.Send(&Message{Type: MsgFeatures, Run: seq, X: payload(seq)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	seen := map[int]bool{}
	for i := 0; i < 2*n; i++ {
		m, err := cb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if seen[m.Run] {
			t.Fatalf("duplicate frame %d", m.Run)
		}
		seen[m.Run] = true
		want := payload(m.Run)
		if len(m.X) != len(want) {
			t.Fatalf("frame %d: %d halves, want %d", m.Run, len(m.X), len(want))
		}
		for j := range want {
			if m.X[j] != want[j] {
				t.Fatalf("frame %d corrupted at %d: %v != %v", m.Run, j, m.X[j], want[j])
			}
		}
	}
	wg.Wait()
}

func TestMsgTypeString(t *testing.T) {
	seen := map[string]bool{}
	for mt := MsgHello; mt <= lastMsgType; mt++ {
		name := mt.String()
		if name == "" || seen[name] || name == MsgType(200).String() {
			t.Fatalf("type %d has name %q", mt, name)
		}
		seen[name] = true
	}
	if MsgType(200).String() != "msgtype(200)" {
		t.Fatal("unknown type rendering")
	}
}

// Property: any label map — sparse IDs, negative labels — survives a round
// trip through a buffered stream.
func TestLabelsProperty(t *testing.T) {
	f := func(ids []uint64, labels []int16) bool {
		m := &Message{Type: MsgLabels, LabelsOut: map[uint64]int{}}
		for i, id := range ids {
			if i < len(labels) {
				m.LabelsOut[id] = int(labels[i])
			}
		}
		var buf bytes.Buffer
		c := NewCodec(&buf)
		if err := c.Send(m); err != nil {
			return false
		}
		got, err := c.Recv()
		if err != nil || len(got.LabelsOut) != len(m.LabelsOut) {
			return false
		}
		for k, v := range m.LabelsOut {
			if got.LabelsOut[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRecvOnClosedConn(t *testing.T) {
	a, b := net.Pipe()
	cb := NewCodec(b)
	a.Close()
	if _, err := cb.Recv(); err != io.EOF {
		t.Fatalf("recv on a conn closed between frames = %v, want bare io.EOF", err)
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	ca, cb, done := pipeCodec()
	defer done()
	tc := telemetry.SpanContext{Trace: telemetry.NewTraceID(), Span: 77}
	msg := &Message{Type: MsgTrainRequest, StoreID: "ps-0", Runs: 1}
	msg.SetTraceContext(tc)
	go func() { _ = ca.Send(msg) }()
	got, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceContext() != tc {
		t.Fatalf("trace context = %+v, want %+v", got.TraceContext(), tc)
	}
}

func TestSetTraceContextZeroIsNoTrace(t *testing.T) {
	var msg Message
	msg.SetTraceContext(telemetry.SpanContext{})
	if msg.Trace != 0 || msg.Parent != 0 || msg.TraceContext().Valid() {
		t.Fatalf("zero context must stay zero: %+v", msg)
	}
}

func TestCodecMetrics(t *testing.T) {
	sent := telemetry.Default.Counter(telemetry.Labeled("wire_send_total", "type", "ack"))
	recv := telemetry.Default.Counter(telemetry.Labeled("wire_recv_total", "type", "ack"))
	sentBefore, recvBefore := sent.Value(), recv.Value()
	outBefore, inBefore := sentBytes.Value(), recvBytes.Value()

	var buf bytes.Buffer
	c := NewCodec(&buf)
	if err := c.Send(&Message{Type: MsgAck, StoreID: "ps-0"}); err != nil {
		t.Fatal(err)
	}
	frameLen := int64(buf.Len())
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}

	if d := sent.Value() - sentBefore; d != 1 {
		t.Fatalf("send counter advanced by %d, want 1", d)
	}
	if d := recv.Value() - recvBefore; d != 1 {
		t.Fatalf("recv counter advanced by %d, want 1", d)
	}
	if out, in := sentBytes.Value()-outBefore, recvBytes.Value()-inBefore; out != frameLen || in != frameLen {
		t.Fatalf("byte counters advanced by %d out / %d in, want the frame's %d both ways", out, in, frameLen)
	}
}
