// Failure-injection tests: the Tuner must surface PipeStore failures
// promptly instead of hanging or silently training on partial data.
package tuner

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	"ndpipe/internal/core"
	"ndpipe/internal/durable"
	"ndpipe/internal/wire"
)

// fakeStore registers with the tuner but misbehaves on command.
type fakeStore struct {
	conn  net.Conn
	codec *wire.Codec
}

func dialFake(t *testing.T, tn *Node, ln net.Listener, id string) *fakeStore {
	t.Helper()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewCodec(conn)
	if err := c.Send(&wire.Message{Type: wire.MsgHello, StoreID: id}); err != nil {
		t.Fatal(err)
	}
	return &fakeStore{conn: conn, codec: c}
}

func tunerWithListener(t *testing.T) (*Node, net.Listener) {
	t.Helper()
	tn, err := New(core.DefaultModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close(); tn.Close() })
	return tn, ln
}

func TestStoreDisconnectMidTrainingFailsFast(t *testing.T) {
	tn, ln := tunerWithListener(t)
	done := make(chan error, 1)
	go func() { done <- tn.AcceptStores(ln, 1) }()
	fs := dialFake(t, tn, ln, "flaky")
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The fake store waits for the training request, then dies.
	go func() {
		_, _ = fs.codec.Recv()
		fs.conn.Close()
	}()

	start := time.Now()
	_, err := tn.FineTune(2, 64, trainOpts())
	if err == nil {
		t.Fatal("fine-tune must fail when the only store dies")
	}
	if !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("error should name the disconnect: %v", err)
	}
	if time.Since(start) > 30*time.Second {
		t.Fatalf("failure took %v; must surface promptly", time.Since(start))
	}
}

func TestStoreErrorMessagePropagates(t *testing.T) {
	tn, ln := tunerWithListener(t)
	done := make(chan error, 1)
	go func() { done <- tn.AcceptStores(ln, 1) }()
	fs := dialFake(t, tn, ln, "broken")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _ = fs.codec.Recv()
		_ = fs.codec.Send(&wire.Message{Type: wire.MsgError, StoreID: "broken", Err: "disk on fire"})
	}()
	_, err := tn.FineTune(1, 64, trainOpts())
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("store error must propagate, got %v", err)
	}
}

func TestBadRunIndexRejected(t *testing.T) {
	tn, ln := tunerWithListener(t)
	done := make(chan error, 1)
	go func() { done <- tn.AcceptStores(ln, 1) }()
	fs := dialFake(t, tn, ln, "confused")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _ = fs.codec.Recv()
		_ = fs.codec.Send(&wire.Message{
			Type: wire.MsgFeatures, StoreID: "confused",
			Run: 99, Rows: 1, Cols: core.DefaultModelConfig().FeatureDim,
			X: make([]wire.Half, core.DefaultModelConfig().FeatureDim), Labels: []int{0}, Final: true,
		})
	}()
	if _, err := tn.FineTune(1, 64, trainOpts()); err == nil {
		t.Fatal("out-of-range run index must be rejected")
	}
}

func TestWrongFeatureWidthRejected(t *testing.T) {
	tn, ln := tunerWithListener(t)
	done := make(chan error, 1)
	go func() { done <- tn.AcceptStores(ln, 1) }()
	fs := dialFake(t, tn, ln, "narrow")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	go func() {
		_, _ = fs.codec.Recv()
		_ = fs.codec.Send(&wire.Message{
			Type: wire.MsgFeatures, StoreID: "narrow",
			Run: 0, Rows: 1, Cols: 3, X: []wire.Half{0x3c00, 0x4000, 0x4200}, Labels: []int{0}, Final: true,
		})
	}()
	if _, err := tn.FineTune(1, 64, trainOpts()); err == nil {
		t.Fatal("wrong feature width must be rejected")
	}
}

func TestAddStoreRejectsNonHello(t *testing.T) {
	tn, ln := tunerWithListener(t)
	errCh := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errCh <- err
			return
		}
		errCh <- tn.AddStore(conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewCodec(conn)
	if err := c.Send(&wire.Message{Type: wire.MsgAck}); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("non-hello first message must be rejected")
	}
}

func TestAcceptStoresTimesOutInsteadOfHanging(t *testing.T) {
	tn, ln := tunerWithListener(t)
	tn.AcceptTimeout = 100 * time.Millisecond

	done := make(chan error, 1)
	go func() { done <- tn.AcceptStores(ln, 1) }() // nobody ever connects
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("AcceptStores returned nil without any store connecting")
		}
		if !strings.Contains(err.Error(), "no store registration within") {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AcceptStores hung despite AcceptTimeout")
	}
}

func TestAcceptStoresDeadlineClearedForLateStores(t *testing.T) {
	tn, ln := tunerWithListener(t)
	tn.AcceptTimeout = 2 * time.Second

	done := make(chan error, 1)
	go func() { done <- tn.AcceptStores(ln, 1) }()
	// A store that connects inside the window registers normally.
	dialFake(t, tn, ln, "on-time")
	if err := <-done; err != nil {
		t.Fatalf("store inside the window rejected: %v", err)
	}
	if tn.NumStores() != 1 {
		t.Fatalf("stores = %d, want 1", tn.NumStores())
	}
}

// The handshake rule: a hello carrying any protocol version but this node's
// is refused with wire.ErrVersion before anything else in it is looked at —
// the store is not registered, and the refusal is one warn line naming the
// peer. The frame is built by hand, as a peer from another release would:
// u32 length, u32 CRC32C, then type, store ID, four zero header varints and
// the version byte.
func TestAddStoreRefusesOtherProtocolVersion(t *testing.T) {
	var logs bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logs, nil)))
	defer slog.SetDefault(prev)
	tn, ln := tunerWithListener(t)

	errCh := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errCh <- err
			return
		}
		errCh <- tn.AddStore(conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := append([]byte{byte(wire.MsgHello), 7}, "ps-next"...)
	payload = append(payload, 0, 0, 0, 0, wire.ProtocolVersion+1, 0, 0, 0)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, durable.Checksum(payload))
	if _, err := conn.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}

	if err := <-errCh; !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("AddStore = %v, want wire.ErrVersion", err)
	}
	if n := tn.NumStores(); n != 0 {
		t.Fatalf("%d stores registered after a refused hello", n)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("refused peer read %v, want the connection closed", err)
	}
	if n := strings.Count(logs.String(), "level=WARN"); n != 1 ||
		!strings.Contains(logs.String(), "protocol version") || !strings.Contains(logs.String(), "ps-next") {
		t.Fatalf("want exactly one warn line naming the store and the protocol version, got %d:\n%s", n, logs.String())
	}
}
