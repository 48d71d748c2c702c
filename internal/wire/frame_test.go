package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"ndpipe/internal/durable"
	"ndpipe/internal/faultinject"
	"ndpipe/internal/telemetry"
)

// samples returns one message of every MsgType with every field that type
// carries set to a non-zero value — the round-trip, one-write and fuzz
// tests all start from it.
func samples() []*Message {
	hdr := func(t MsgType) *Message {
		return &Message{Type: t, StoreID: "ps-7", Trace: 0xfeedface, Parent: 41, Epoch: 12, LeaderEpoch: 3}
	}
	with := func(t MsgType, fill func(*Message)) *Message {
		m := hdr(t)
		fill(m)
		return m
	}
	at := time.Unix(0, 1_700_000_000_123_456_789)
	objects := []ObjectData{
		{ID: 1 << 33, Label: 4, Day: 9, Raw: []byte("raw-bytes"), Pre: []byte{0, 1, 2}, RawCRC: 0xdeadbeef, PreCRC: 7},
		{ID: 5, Label: -1, Raw: []byte{9}},
	}
	ring := func(m *Message) {
		m.Runs, m.BatchSize, m.Replication, m.FromRun = 3, -1, 2, 1
		m.RingStores = []string{"ps-0", "ps-1", "ps-2"}
		m.LiveStores = []string{"ps-0", "ps-2"}
		m.PrevLive = []string{"ps-0", "ps-1", "ps-2"}
	}
	return []*Message{
		with(MsgHello, func(m *Message) { m.ModelVersion, m.DeltaEncoding, m.WALSeq = 17, 2, 1 }),
		with(MsgTrainRequest, ring),
		with(MsgFeatures, func(m *Message) {
			m.Run, m.Rows, m.Cols, m.Final = 2, 2, 3, true
			m.X = []Half{0x3c00, 0xc000, 0x0001, 0x7bff, 0x8000, 0x3555}
			m.Labels = []int{25, -3}
			m.IDs = []uint64{10, 1 << 40}
		}),
		with(MsgModelDelta, func(m *Message) {
			m.Blob, m.ModelVersion, m.Rebase, m.DeltaEncoding = []byte("delta-blob"), 18, true, 1
		}),
		with(MsgInferRequest, ring),
		with(MsgLabels, func(m *Message) {
			m.ModelVersion = 18
			m.LabelsOut = map[uint64]int{0: 1, 2: 25, 1 << 32: -4, 7: 0}
		}),
		with(MsgAck, func(m *Message) { m.ModelVersion, m.Rows = 18, 64 }),
		with(MsgError, func(m *Message) { m.Err, m.Rows = "disk on fire", 3 }),
		with(MsgSpans, func(m *Message) {
			m.Spans = []telemetry.SpanRecord{
				{Trace: 0xfeedface, ID: 5, Parent: 3, Name: "pipestore.extract", Start: at, Duration: 0.25,
					Attrs: []telemetry.Attr{{Key: "store", Value: "ps-7"}, {Key: "run", Value: "2"}}},
				{Trace: 0xfeedface, ID: 6, Parent: 5, Name: "read", Start: at.Add(time.Millisecond), Duration: 0.1},
			}
		}),
		hdr(MsgPing),
		hdr(MsgPong),
		with(MsgMetrics, func(m *Message) {
			m.MetricsSeq = 9
			m.Metrics = []telemetry.MetricPoint{
				{Name: "pipestore_images_ingested_total", Kind: "counter", Value: 8000},
				{Name: "pipestore_extract_run_seconds", Kind: "histogram", Hist: &telemetry.HistogramSnapshot{
					Count: 3, Sum: 0.75, P50: 0.2, P95: 0.3, P99: 0.31,
					Buckets: []telemetry.BucketCount{{UpperBound: 0.25, Count: 2}, {UpperBound: 0.5, Count: 1}},
				}},
			}
		}),
		with(MsgWALAppend, func(m *Message) {
			m.WALSeq, m.WALCRC, m.Boot, m.ModelVersion, m.Blob = 4, 0xcafef00d, true, 18, []byte("wal-record")
		}),
		with(MsgWALAck, func(m *Message) { m.WALSeq = 4 }),
		with(MsgStandbyHello, func(m *Message) { m.ModelVersion, m.DeltaEncoding, m.WALSeq = 17, 1, 4 }),
		with(MsgObjectPut, func(m *Message) { m.Objects, m.Final = objects, true }),
		with(MsgObjectFetch, func(m *Message) { m.IDs = []uint64{3, 1 << 50} }),
		with(MsgObjects, func(m *Message) { m.Objects, m.Final = objects, true }),
		with(MsgScrubQuery, func(m *Message) { m.BatchSize = -1 }),
		with(MsgScrubReport, func(m *Message) { m.Quarantined, m.IDs = []uint64{8, 9}, []uint64{1, 2, 1 << 60} }),
		// A wiped or replacement store holds nothing: both lists empty,
		// the report Reconcile refills a whole member from.
		hdr(MsgScrubReport),
	}
}

func mustFrame(t testing.TB, m *Message) []byte {
	t.Helper()
	var c coder
	if err := c.encodeFrame(m); err != nil {
		t.Fatal(err)
	}
	return c.buf
}

// stream is a codec's view of a canned byte stream: reads drain the bytes,
// writes are counted and kept.
type stream struct {
	io.Reader
	writes int
	out    bytes.Buffer
}

func (s *stream) Write(p []byte) (int, error) {
	s.writes++
	return s.out.Write(p)
}

func TestSamplesCoverEveryTypeAndField(t *testing.T) {
	byType := map[MsgType]bool{}
	set := map[string]bool{}
	for _, m := range samples() {
		byType[m.Type] = true
		v := reflect.ValueOf(*m)
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).IsZero() {
				set[v.Type().Field(i).Name] = true
			}
		}
	}
	for mt := MsgHello; mt <= lastMsgType; mt++ {
		if !byType[mt] {
			t.Errorf("no sample for %v", mt)
		}
	}
	// A Message field no sample sets is a field no test proves is carried.
	mt := reflect.TypeOf(Message{})
	for i := 0; i < mt.NumField(); i++ {
		if name := mt.Field(i).Name; !set[name] {
			t.Errorf("Message.%s is set by no sample: add it to the type that carries it", name)
		}
	}
}

// Recv(Send(m)) == m for a fully-populated message of every type, and Send
// leaves m untouched (the benchmark re-sends captured messages).
func TestRoundTripEveryType(t *testing.T) {
	for i, m := range samples() {
		before := mustFrame(t, m)
		var buf bytes.Buffer
		c := NewCodec(&buf)
		if err := c.Send(m); err != nil {
			t.Fatalf("%v: %v", m.Type, err)
		}
		if !reflect.DeepEqual(m, samples()[i]) {
			t.Fatalf("%v: Send modified the message", m.Type)
		}
		if !bytes.Equal(buf.Bytes(), before) {
			t.Fatalf("%v: two encodings of one message differ", m.Type)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("%v: %v", m.Type, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%v round trip:\n got %+v\nwant %+v", m.Type, got, m)
		}
		if _, err := c.Recv(); err != io.EOF {
			t.Fatalf("%v: stream not drained: %v", m.Type, err)
		}
	}
}

// One Send is one Write, for every message type: fault schedules and the
// benchmark's socket timeline count writes as messages.
func TestOneSendOneWrite(t *testing.T) {
	for _, m := range samples() {
		s := &stream{Reader: bytes.NewReader(nil)}
		if err := NewCodec(s).Send(m); err != nil {
			t.Fatalf("%v: %v", m.Type, err)
		}
		if s.writes != 1 {
			t.Errorf("%v left in %d writes, want 1", m.Type, s.writes)
		}
		if want := mustFrame(t, m); !bytes.Equal(s.out.Bytes(), want) {
			t.Errorf("%v: the write is not the frame", m.Type)
		}
	}
}

// recvWithin fails the test when Recv blocks: every rejection below must
// happen on the bytes already received.
func recvWithin(t *testing.T, c *Codec) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		errc <- err
	}()
	select {
	case err := <-errc:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("Recv blocked instead of rejecting the frame")
		return nil
	}
}

// A header claiming a multi-gigabyte payload gets a typed ErrTooLarge from
// the eight header bytes alone — no payload is ever sent, nothing is
// allocated for it — the counter records it, and the stream stays poisoned.
func TestOversizeHeaderRejected(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	codec := NewCodec(b)
	before := oversizeFrames.Value()
	go func() { _, _ = a.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) }()
	if err := recvWithin(t, codec); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Recv() = %v, want ErrTooLarge", err)
	}
	if got := oversizeFrames.Value(); got != before+1 {
		t.Fatalf("wire_oversize_frames_total = %d, want %d", got, before+1)
	}
	if _, err := codec.Recv(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("second Recv() = %v, want sticky ErrTooLarge", err)
	}
}

// An honest peer that simply exceeds the configured limit is also refused —
// the limit is about the receiver's memory, not the sender's intent — while
// traffic under a tight limit passes, including frames that span many reads.
func TestSizeLimit(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewCodec(a), NewCodecMax(b, 1<<17)
	fits := &Message{Type: MsgFeatures, StoreID: "ps-9", Rows: 512, Cols: 64, X: make([]Half, 512*64)}
	for i := range fits.X {
		fits.X[i] = Half(i) & halfMax
	}
	go func() {
		for i := 0; i < 3; i++ {
			_ = ca.Send(fits)
		}
		_ = ca.Send(&Message{Type: MsgModelDelta, Blob: make([]byte, 1<<17)})
	}()
	for i := 0; i < 3; i++ {
		got, err := cb.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, fits) {
			t.Fatalf("message %d mangled under a tight limit", i)
		}
	}
	if err := recvWithin(t, cb); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Recv() = %v, want ErrTooLarge", err)
	}
}

// A peer that claims a large payload and sends none of it costs the
// receiver a chunk, not the claim.
func TestClaimedLengthIsNotAllocatedUpFront(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, 200<<20)
	hdr = append(hdr, 0, 0, 0, 0, byte(MsgModelDelta))
	c := NewCodec(&stream{Reader: bytes.NewReader(hdr)})
	allocs := testing.AllocsPerRun(1, func() {
		c.rbuf = nil
		if _, err := c.recv(); err != io.ErrUnexpectedEOF {
			t.Fatalf("recv() = %v, want io.ErrUnexpectedEOF", err)
		}
		c.r.Reset(bytes.NewReader(hdr))
	})
	if allocs > 4 || cap(c.rbuf) != 0 {
		t.Fatalf("a 200 MiB claim backed by one byte: %v allocations, %d bytes retained", allocs, cap(c.rbuf))
	}
}

// A flipped byte anywhere in a frame is caught before anything is decoded.
// Behind the length prefix it is always ErrChecksum; in the prefix it
// mis-frames the stream, which surfaces as ErrChecksum on the wrong span,
// ErrTooLarge, or a short stream — never as a message.
func TestFlippedByteNeverDecodes(t *testing.T) {
	good := mustFrame(t, samples()[2]) // features
	tail := bytes.Repeat(good, 4)
	before := checksumErrors.Value()
	for i := range good {
		bad := bytes.Clone(good)
		bad[i] ^= 0xff
		c := NewCodec(&stream{Reader: bytes.NewReader(append(bad, tail...))})
		m, err := c.Recv()
		if m != nil {
			t.Fatalf("byte %d flipped: decoded %+v", i, m)
		}
		switch {
		case errors.Is(err, ErrChecksum):
		case i < 4 && (errors.Is(err, ErrTooLarge) || err == io.ErrUnexpectedEOF):
			// A flipped length byte: an impossible claim, or a frame inflated
			// past the end of the stream.
		default:
			t.Fatalf("byte %d flipped: %v, want ErrChecksum", i, err)
		}
		if _, again := c.Recv(); again != err {
			t.Fatalf("byte %d flipped: second Recv() = %v, want the first error to stick", i, again)
		}
	}
	if got := checksumErrors.Value() - before; got < int64(len(good)-4) {
		t.Fatalf("wire_checksum_errors_total advanced by %d over %d corrupt frames", got, len(good)-4)
	}
}

// faultinject's Corrupt rule — one flipped byte in one write, which is one
// frame — reaches the receiver as ErrChecksum, and the frames before it
// arrive intact.
func TestInjectedCorruptionIsErrChecksum(t *testing.T) {
	inj, err := faultinject.New(7, faultinject.Rule{Kind: faultinject.Corrupt, Op: faultinject.OpWrite, After: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewCodec(inj.Conn(a)), NewCodec(b)
	msg := samples()[2]
	go func() {
		for i := 0; i < 4; i++ {
			_ = ca.Send(msg)
		}
	}()
	for i := 0; i < 2; i++ {
		if got, err := cb.Recv(); err != nil || !reflect.DeepEqual(got, msg) {
			t.Fatalf("message %d, before the fault: %+v, %v", i+1, got, err)
		}
	}
	if err := recvWithin(t, cb); !errors.Is(err, ErrChecksum) {
		t.Fatalf("third message, corrupted in flight: %v, want ErrChecksum", err)
	}
}

// payloadOf re-frames a hand-built payload with a correct length and CRC.
func payloadOf(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, durable.Checksum(payload))
	return append(frame, payload...)
}

// The version byte is the first byte after a hello's common header; any
// value but ProtocolVersion is ErrVersion, for both kinds of hello.
func TestVersionMismatch(t *testing.T) {
	for _, mt := range []MsgType{MsgHello, MsgStandbyHello} {
		hello := &Message{Type: mt, StoreID: "ps-1", ModelVersion: 3}
		payload := mustFrame(t, hello)[frameHeaderLen:]
		at := 1 + 1 + len(hello.StoreID) + 4 // type, store ID, four zero varints
		if payload[at] != ProtocolVersion {
			t.Fatalf("%v: byte %d is %d, expected the version byte", mt, at, payload[at])
		}
		payload[at]++
		c := NewCodec(&stream{Reader: bytes.NewReader(payloadOf(payload))})
		if _, err := c.Recv(); !errors.Is(err, ErrVersion) {
			t.Fatalf("%v from the future: %v, want ErrVersion", mt, err)
		}
	}
}

func TestMalformedPayloads(t *testing.T) {
	features := mustFrame(t, samples()[2])[frameHeaderLen:]
	for name, payload := range map[string][]byte{
		"unknown type":      {byte(lastMsgType) + 1, 0, 0, 0, 0, 0},
		"truncated header":  {byte(MsgPing), 0, 0},
		"trailing bytes":    append(bytes.Clone(mustFrame(t, samples()[9])[frameHeaderLen:]), 0),
		"truncated body":    features[:len(features)-1],
		"count beyond body": {byte(MsgObjectFetch), 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f},
		"infinite feature":  append(append([]byte{byte(MsgFeatures), 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, 0x00, 0x7c), 0, 0),
		"repeated label id": {byte(MsgLabels), 0, 0, 0, 0, 0, 0, 2, 5, 2, 0, 4},
	} {
		c := NewCodec(&stream{Reader: bytes.NewReader(payloadOf(payload))})
		if m, err := c.Recv(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: %+v, %v, want ErrMalformed", name, m, err)
		}
	}
	c := NewCodec(&stream{Reader: bytes.NewReader(make([]byte, frameHeaderLen))})
	if _, err := c.Recv(); !errors.Is(err, ErrMalformed) {
		t.Errorf("empty frame: %v, want ErrMalformed", err)
	}
}

// wireFloor is the least number of payload bytes that could have produced
// m's variable-size parts: what a frame must have carried for the decoder
// to have been right to allocate them.
func wireFloor(m *Message) int {
	n := len(m.StoreID) + len(m.Err) + len(m.Blob) + HalfSize*len(m.X) + len(m.Labels) + len(m.IDs) +
		len(m.Quarantined) + 2*len(m.LabelsOut)
	for _, ss := range [][]string{m.RingStores, m.LiveStores, m.PrevLive} {
		for _, s := range ss {
			n += 1 + len(s)
		}
	}
	for _, o := range m.Objects {
		n += objectMin + len(o.Raw) + len(o.Pre)
	}
	for _, s := range m.Spans {
		n += spanMin + len(s.Name)
		for _, a := range s.Attrs {
			n += attrMin + len(a.Key) + len(a.Value)
		}
	}
	for _, p := range m.Metrics {
		n += metricMin + len(p.Name) + len(p.Kind)
		if p.Hist != nil {
			n += bucketMin * len(p.Hist.Buckets)
		}
	}
	return n
}

// FuzzDecodeFrame feeds arbitrary bytes to a Codec as a stream of frames.
// Whatever arrives, Recv must not panic, must fail only with a typed error
// or the stream's own EOF, must not build a message larger than the bytes
// that carried it, and whatever it accepts must re-encode to a frame that
// decodes to the same message.
func FuzzDecodeFrame(f *testing.F) {
	for _, m := range samples() {
		frame := mustFrame(f, m)
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(payloadOf(frame[frameHeaderLen : len(frame)-1]))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCodecMax(&stream{Reader: bytes.NewReader(data)}, 1<<20)
		for {
			m, err := c.Recv()
			if err != nil {
				typed := errors.Is(err, ErrTooLarge) || errors.Is(err, ErrChecksum) ||
					errors.Is(err, ErrMalformed) || errors.Is(err, ErrVersion)
				if !typed && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("untyped error %v", err)
				}
				return
			}
			if floor := wireFloor(m); floor > len(data) {
				t.Fatalf("%d input bytes produced a message that needs at least %d", len(data), floor)
			}
			again := mustFrame(t, m)
			m2, err := (&coder{decoding: true}).decodePayload(again[frameHeaderLen:])
			if err != nil {
				t.Fatalf("re-encoded message does not decode: %v", err)
			}
			if twice := mustFrame(t, m2); !bytes.Equal(again, twice) {
				t.Fatalf("re-encoding is not stable:\n%x\n%x", again, twice)
			}
		}
	})
}

// The list floors are exact: each is the encoded size of the zero element,
// so a valid frame can never be refused by the count check.
func TestElementFloors(t *testing.T) {
	size := func(code func(*coder)) int {
		var c coder
		code(&c)
		return len(c.buf)
	}
	for name, tc := range map[string][2]int{
		"attr":   {attrMin, size(func(c *coder) { c.attr(&telemetry.Attr{}) })},
		"span":   {spanMin, size(func(c *coder) { c.span(&telemetry.SpanRecord{}) })},
		"bucket": {bucketMin, size(func(c *coder) { c.bucket(&telemetry.BucketCount{}) })},
		"metric": {metricMin, size(func(c *coder) { c.metric(&telemetry.MetricPoint{}) })},
		"object": {objectMin, size(func(c *coder) { c.object(&ObjectData{}) })},
	} {
		if tc[0] != tc[1] {
			t.Errorf("%sMin = %d, but the zero %s encodes to %d bytes", name, tc[0], name, tc[1])
		}
	}
}
