package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"ndpipe/internal/durable"
)

// Frame layout, little-endian — the durable log's framing, on a socket:
//
//	u32 len(payload) | u32 crc32c(payload) | payload      (durable.Checksum)
//	payload = u8 type | common header | per-type body   (see coder.message)
//
// A frame is built whole in a reused buffer and leaves in exactly one Write,
// so one message is one write on the connection. The receiver checks the
// length against its limit before allocating anything and the checksum
// before decoding anything.
const frameHeaderLen = 8

// DefaultMaxMessage is the payload size limit applied by NewCodec. It
// matches the durable log's maxRecord bound: nothing in the protocol
// legitimately ships a larger single message.
const DefaultMaxMessage = 1 << 28 // 256 MiB

// maxRetained caps the encode and decode buffers a Codec keeps between
// messages; a rare larger frame (an object chunk) is not pinned forever.
const maxRetained = 1 << 20

// Typed decode failures. After any of them (as after a read error or a
// deadline that fired mid-frame) the framing cannot be trusted, so the first
// error a Codec's Recv returns is the one it returns from then on.
var (
	// ErrTooLarge: the peer claims (or Send was given) a payload above the limit.
	ErrTooLarge = errors.New("wire: message exceeds size limit")
	// ErrChecksum: the payload does not match its CRC32C — corrupted in flight.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
	// ErrMalformed: the checksum holds but the payload is not a valid message.
	ErrMalformed = errors.New("wire: malformed message")
	// ErrVersion: a hello carrying a different ProtocolVersion.
	ErrVersion = errors.New("wire: protocol version mismatch")
)

// encodeFrame makes c.buf m's frame, reusing its storage.
func (c *coder) encodeFrame(m *Message) error {
	c.buf, c.err = append(c.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0, byte(m.Type)), nil
	c.message(m)
	if c.err != nil {
		return c.err
	}
	payload := c.buf[frameHeaderLen:]
	if len(payload) > DefaultMaxMessage {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	binary.LittleEndian.PutUint32(c.buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(c.buf[4:], durable.Checksum(payload))
	return nil
}

// decodePayload parses a checksum-verified payload into a fresh Message
// that shares no memory with it.
func (c *coder) decodePayload(payload []byte) (*Message, error) {
	m := &Message{Type: MsgType(payload[0])}
	c.buf, c.err = payload[1:], nil
	c.message(m)
	if c.err == nil && len(c.buf) != 0 {
		c.fail("%d bytes after the last field of a %v", len(c.buf), m.Type)
	}
	if c.err != nil {
		return nil, c.err
	}
	c.storeID = m.StoreID
	return m, nil
}

// Codec frames Messages over a stream. It is safe for one concurrent reader
// and any number of concurrent writers. Its two coders live as long as it
// does, so a message costs no allocation beyond the fields it decodes to.
type Codec struct {
	wmu sync.Mutex
	w   io.Writer
	enc coder // enc.buf is the frame being sent

	r    *bufio.Reader
	max  uint32
	hdr  [frameHeaderLen]byte
	rbuf []byte // the payload being received; decoded messages never alias it
	dec  coder
	rerr error // the first Recv failure
}

// NewCodec wraps a bidirectional stream (typically a net.Conn). Per-MsgType
// message counts and total bytes in each direction land in the telemetry
// default registry.
func NewCodec(rw io.ReadWriter) *Codec {
	return NewCodecMax(rw, DefaultMaxMessage)
}

// NewCodecMax is NewCodec with an explicit inbound payload limit (max <= 0
// or above DefaultMaxMessage selects DefaultMaxMessage).
func NewCodecMax(rw io.ReadWriter, max int64) *Codec {
	if max <= 0 || max > DefaultMaxMessage {
		max = DefaultMaxMessage
	}
	// 64 KiB holds the largest routine frame (a dense delta), so a burst of
	// feature batches or one delta costs one read.
	return &Codec{w: rw, r: bufio.NewReaderSize(rw, 64<<10), max: uint32(max), dec: coder{decoding: true}}
}

// Send writes one message as one frame in one Write. It neither modifies
// nor retains m.
func (c *Codec) Send(m *Message) error {
	if m.Type == 0 {
		return fmt.Errorf("wire: message has no type")
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.enc.encodeFrame(m); err != nil {
		return fmt.Errorf("wire: send %v: %w", m.Type, err)
	}
	n, err := c.w.Write(c.enc.buf)
	if cap(c.enc.buf) > maxRetained {
		c.enc.buf = nil
	}
	sentBytes.Add(int64(n))
	if err != nil {
		return fmt.Errorf("wire: send %v: %w", m.Type, err)
	}
	countSent(m.Type)
	return nil
}

// Recv reads the next message. A clean close between frames is io.EOF. Any
// error is final: the Codec repeats it on every later call.
func (c *Codec) Recv() (*Message, error) {
	if c.rerr != nil {
		return nil, c.rerr
	}
	m, err := c.recv()
	if err != nil {
		if errors.Is(err, ErrTooLarge) {
			oversizeFrames.Inc()
		} else if errors.Is(err, ErrChecksum) {
			checksumErrors.Inc()
		}
		c.rerr = err
		return nil, err
	}
	countRecv(m.Type)
	return m, nil
}

func (c *Codec) recv() (*Message, error) {
	if _, err := io.ReadFull(c.r, c.hdr[:]); err != nil {
		return nil, err
	}
	recvBytes.Add(frameHeaderLen)
	n := binary.LittleEndian.Uint32(c.hdr[:])
	switch {
	case n == 0:
		return nil, fmt.Errorf("%w: empty frame", ErrMalformed)
	case n > c.max:
		return nil, fmt.Errorf("%w: peer claims %d bytes, limit %d", ErrTooLarge, n, c.max)
	}
	payload, err := c.readPayload(int(n))
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if got, want := durable.Checksum(payload), binary.LittleEndian.Uint32(c.hdr[4:]); got != want {
		return nil, fmt.Errorf("%w: crc32c %08x, frame says %08x", ErrChecksum, got, want)
	}
	return c.dec.decodePayload(payload)
}

// readPayload reads n bytes into the reused receive buffer, growing it only
// as bytes actually arrive: a header that claims 200 MiB and sends nothing
// costs one 64 KiB chunk, not 200 MiB.
func (c *Codec) readPayload(n int) ([]byte, error) {
	buf := c.rbuf[:0]
	for len(buf) < n {
		chunk := min(n-len(buf), max(len(buf), 64<<10))
		buf = slices.Grow(buf, chunk)
		got, err := io.ReadFull(c.r, buf[len(buf):len(buf)+chunk])
		recvBytes.Add(int64(got))
		if err != nil {
			return nil, err
		}
		buf = buf[:len(buf)+chunk]
	}
	if cap(buf) <= maxRetained {
		c.rbuf = buf
	}
	return buf, nil
}
