package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"ndpipe/internal/telemetry"
)

// ProtocolVersion is the byte both hello messages carry. A peer speaking any
// other version is refused at registration with ErrVersion: the layouts below
// have no optional fields, so there is nothing to negotiate.
const ProtocolVersion = 2

// coder walks a Message's fields in wire order. Encoding, it appends each
// field to buf; decoding, it fills each field from the front of buf. One
// walk (message, below) therefore defines both directions and they cannot
// drift apart. Integers are varints (zig-zag when signed), checksums and
// floats fixed-width little-endian, strings, byte slices and lists a uvarint
// count followed by the elements.
//
// Decoding never trusts a count: every list checks that the bytes still
// unread can hold it before allocating, so a frame cannot make the decoder
// allocate more than a small multiple of its own length. The first failure
// sticks in err and empties buf, which makes every later read fail fast.
type coder struct {
	buf      []byte
	decoding bool
	err      error
	storeID  string // decoding: StoreID of the previous message, reused when it repeats
}

func (c *coder) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: "+format, append([]any{ErrMalformed}, args...)...)
	}
	c.buf = nil
}

// take returns the next n bytes of a decode buffer (nil after a failure).
func (c *coder) take(n int) []byte {
	if n > len(c.buf) {
		c.fail("field needs %d bytes, %d left", n, len(c.buf))
		return nil
	}
	b := c.buf[:n]
	c.buf = c.buf[n:]
	return b
}

func (c *coder) u64(p *uint64) {
	if !c.decoding {
		c.buf = binary.AppendUvarint(c.buf, *p)
		return
	}
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.fail("bad uvarint")
		return
	}
	*p, c.buf = v, c.buf[n:]
}

func (c *coder) int(p *int) {
	if !c.decoding {
		c.buf = binary.AppendVarint(c.buf, int64(*p))
		return
	}
	v, n := binary.Varint(c.buf)
	if n <= 0 {
		c.fail("bad varint")
		return
	}
	*p, c.buf = int(v), c.buf[n:]
}

func (c *coder) u8(p *uint8) {
	if !c.decoding {
		c.buf = append(c.buf, *p)
	} else if b := c.take(1); b != nil {
		*p = b[0]
	}
}

func (c *coder) bool(p *bool) {
	var b uint8
	if *p {
		b = 1
	}
	c.u8(&b)
	if c.decoding {
		if b > 1 {
			c.fail("bool byte %#x", b)
		}
		*p = b == 1
	}
}

func (c *coder) u32(p *uint32) {
	if !c.decoding {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *p)
	} else if b := c.take(4); b != nil {
		*p = binary.LittleEndian.Uint32(b)
	}
}

func (c *coder) f64(p *float64) {
	if !c.decoding {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*p))
	} else if b := c.take(8); b != nil {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
}

// time carries an instant as Unix nanoseconds (the zero Time as 0).
func (c *coder) time(p *time.Time) {
	var ns int
	if !c.decoding && !p.IsZero() {
		ns = int(p.UnixNano())
	}
	c.int(&ns)
	if c.decoding && ns != 0 {
		*p = time.Unix(0, int64(ns))
	}
}

// count codes a list length. Decoding, it refuses a length whose elements,
// at elemMin encoded bytes each, could not fit in what is left of the frame.
func (c *coder) count(have, elemMin int) int {
	n := uint64(have)
	c.u64(&n)
	if c.decoding && n > uint64(len(c.buf)/elemMin) {
		c.fail("list of %d elements in %d bytes", n, len(c.buf))
		return 0
	}
	return int(n)
}

func (c *coder) str(p *string) {
	n := c.count(len(*p), 1)
	if !c.decoding {
		c.buf = append(c.buf, *p...)
	} else if n > 0 {
		*p = string(c.take(n))
	}
}

func (c *coder) bytes(p *[]byte) {
	n := c.count(len(*p), 1)
	if !c.decoding {
		c.buf = append(c.buf, *p...)
	} else if n > 0 {
		*p = slices.Clone(c.take(n))
	}
}

// list codes a slice whose elements take at least elemMin bytes each. The
// …Min constants below are those floors: every varint and count at one
// byte, every string and slice empty, fixed-width fields at their width.
func list[T any](c *coder, p *[]T, elemMin int, elem func(*coder, *T)) {
	n := c.count(len(*p), elemMin)
	if c.decoding && n > 0 {
		*p = make([]T, n)
	}
	for i := range *p {
		elem(c, &(*p)[i])
	}
}

// halves codes a feature matrix: two little-endian bytes per element, moved
// four elements to a 64-bit word (this is the bulk of every feature frame).
// A received infinity or NaN is malformed — stores never send one.
func (c *coder) halves(p *[]Half) {
	n := c.count(len(*p), HalfSize)
	if !c.decoding {
		at := len(c.buf)
		c.buf = slices.Grow(c.buf, n*HalfSize)[:at+n*HalfSize]
		src, out := *p, c.buf[at:]
		for ; len(src) >= 4; src, out = src[4:], out[8:] {
			binary.LittleEndian.PutUint64(out,
				uint64(src[0])|uint64(src[1])<<16|uint64(src[2])<<32|uint64(src[3])<<48)
		}
		for ; len(src) > 0; src, out = src[1:], out[HalfSize:] {
			binary.LittleEndian.PutUint16(out, uint16(src[0]))
		}
		return
	}
	b := c.take(n * HalfSize)
	if n == 0 || b == nil {
		return
	}
	// An element is non-finite when its five exponent bits (0x7c00) are all
	// set, which is exactly when adding 0x0400 to them carries into bit 15.
	const expBits, expCarry, carried = 0x7c007c007c007c00, 0x0400040004000400, 0x8000800080008000
	x := make([]Half, n)
	dst, nonFinite := x, uint64(0)
	for ; len(dst) >= 4; dst, b = dst[4:], b[8:] {
		v := binary.LittleEndian.Uint64(b)
		dst[0], dst[1], dst[2], dst[3] = Half(v), Half(v>>16), Half(v>>32), Half(v>>48)
		nonFinite |= v&expBits + expCarry
	}
	for ; len(dst) > 0; dst, b = dst[1:], b[HalfSize:] {
		dst[0] = Half(binary.LittleEndian.Uint16(b))
		nonFinite |= uint64(dst[0])&expBits + expCarry
	}
	if nonFinite&carried != 0 {
		c.fail("non-finite feature")
		return
	}
	*p = x
}

// labels codes an ID→label map as ID-sorted pairs: the ID as the gap from
// its predecessor, the label as a varint. Shard IDs are dense, so a pair is
// typically two bytes, and the encoding of a map is deterministic.
func (c *coder) labels(p *map[uint64]int) {
	n := c.count(len(*p), 2)
	if !c.decoding {
		ids := make([]uint64, 0, n)
		for id := range *p {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		prev := uint64(0)
		for _, id := range ids {
			c.buf = binary.AppendUvarint(c.buf, id-prev)
			c.buf = binary.AppendVarint(c.buf, int64((*p)[id]))
			prev = id
		}
		return
	}
	if n == 0 {
		return
	}
	m := make(map[uint64]int, n)
	var id, gap uint64
	var label int
	for i := 0; i < n && c.err == nil; i++ {
		c.u64(&gap)
		c.int(&label)
		id += gap
		m[id] = label
	}
	if len(m) != n && c.err == nil {
		c.fail("label map repeats an ID")
	}
	*p = m
}

const attrMin, spanMin, bucketMin, metricMin, objectMin = 2, 14, 9, 11, 13

func (c *coder) attr(a *telemetry.Attr) { c.str(&a.Key); c.str(&a.Value) }

func (c *coder) span(s *telemetry.SpanRecord) {
	c.u64((*uint64)(&s.Trace))
	c.u64((*uint64)(&s.ID))
	c.u64((*uint64)(&s.Parent))
	c.str(&s.Name)
	c.time(&s.Start)
	c.f64(&s.Duration)
	list(c, &s.Attrs, attrMin, (*coder).attr)
}

func (c *coder) bucket(b *telemetry.BucketCount) { c.f64(&b.UpperBound); c.u64(&b.Count) }

func (c *coder) metric(m *telemetry.MetricPoint) {
	c.str(&m.Name)
	c.str(&m.Kind)
	c.f64(&m.Value)
	hasHist := m.Hist != nil
	c.bool(&hasHist)
	if !hasHist {
		return
	}
	if c.decoding {
		m.Hist = new(telemetry.HistogramSnapshot)
	}
	h := m.Hist
	c.u64(&h.Count)
	c.f64(&h.Sum)
	c.f64(&h.P50)
	c.f64(&h.P95)
	c.f64(&h.P99)
	list(c, &h.Buckets, bucketMin, (*coder).bucket)
}

func (c *coder) object(o *ObjectData) {
	c.u64(&o.ID)
	c.int(&o.Label)
	c.int(&o.Day)
	c.bytes(&o.Raw)
	c.bytes(&o.Pre)
	c.u32(&o.RawCRC)
	c.u32(&o.PreCRC)
}

// version codes the protocol-version byte of store's hello.
func (c *coder) version(store string) {
	v := uint8(ProtocolVersion)
	c.u8(&v)
	if c.decoding && c.err == nil && v != ProtocolVersion {
		c.err = fmt.Errorf("%w: %q speaks version %d, this node %d", ErrVersion, store, v, ProtocolVersion)
		c.buf = nil
	}
}

// message is the wire layout of everything after the type byte: the common
// header, then the fields the message's type carries, in this order.
func (c *coder) message(m *Message) {
	if !c.decoding {
		c.str(&m.StoreID)
	} else if id := c.take(c.count(0, 1)); string(id) == c.storeID {
		// Nearly every frame on a connection names the same store; comparing
		// before converting saves the string allocation when it does.
		m.StoreID = c.storeID
	} else {
		m.StoreID = string(id)
	}
	c.u64((*uint64)(&m.Trace))
	c.u64((*uint64)(&m.Parent))
	c.int(&m.Epoch)
	c.u64(&m.LeaderEpoch)

	switch m.Type {
	case MsgHello, MsgStandbyHello:
		c.version(m.StoreID)
		c.int(&m.ModelVersion)
		c.u8(&m.DeltaEncoding)
		c.u64(&m.WALSeq)
	case MsgTrainRequest, MsgInferRequest:
		c.int(&m.Runs)
		c.int(&m.BatchSize)
		c.int(&m.Replication)
		c.int(&m.FromRun)
		list(c, &m.RingStores, 1, (*coder).str)
		list(c, &m.LiveStores, 1, (*coder).str)
		list(c, &m.PrevLive, 1, (*coder).str)
	case MsgFeatures:
		c.int(&m.Run)
		c.int(&m.Rows)
		c.int(&m.Cols)
		c.bool(&m.Final)
		c.halves(&m.X)
		list(c, &m.Labels, 1, (*coder).int)
		list(c, &m.IDs, 1, (*coder).u64)
	case MsgModelDelta:
		c.int(&m.ModelVersion)
		c.bool(&m.Rebase)
		c.u8(&m.DeltaEncoding)
		c.bytes(&m.Blob)
	case MsgLabels:
		c.int(&m.ModelVersion)
		c.labels(&m.LabelsOut)
	case MsgAck:
		c.int(&m.ModelVersion)
		c.int(&m.Rows)
	case MsgError:
		c.str(&m.Err)
		c.int(&m.Rows)
	case MsgSpans:
		list(c, &m.Spans, spanMin, (*coder).span)
	case MsgPing, MsgPong:
	case MsgMetrics:
		c.u64(&m.MetricsSeq)
		list(c, &m.Metrics, metricMin, (*coder).metric)
	case MsgWALAppend:
		c.u64(&m.WALSeq)
		c.u32(&m.WALCRC)
		c.bool(&m.Boot)
		c.int(&m.ModelVersion)
		c.bytes(&m.Blob)
	case MsgWALAck:
		c.u64(&m.WALSeq)
	case MsgObjectPut, MsgObjects:
		c.bool(&m.Final)
		list(c, &m.Objects, objectMin, (*coder).object)
	case MsgObjectFetch:
		list(c, &m.IDs, 1, (*coder).u64)
	case MsgScrubQuery:
		c.int(&m.BatchSize)
	case MsgScrubReport:
		list(c, &m.Quarantined, 1, (*coder).u64)
		list(c, &m.IDs, 1, (*coder).u64)
	default:
		c.fail("unknown message type %d", uint8(m.Type))
	}
}
