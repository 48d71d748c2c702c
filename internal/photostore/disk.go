package photostore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ndpipe/internal/durable"
	"ndpipe/internal/telemetry"
)

// ObjectStore is the storage contract PipeStores program against; Store
// (in-memory) and DiskStore (durable) both satisfy it.
//
// Integrity contract: every Get verifies the object's CRC32C before
// returning bytes, and a mismatch quarantines the object — corrupt bytes
// are never served, subsequent reads miss until a repair re-puts the
// object and ClearQuarantine lifts the flag.
type ObjectStore interface {
	Put(id uint64, raw []byte)
	PutPreproc(id uint64, preproc []byte) error
	GetRaw(id uint64) ([]byte, error)
	GetPreproc(id uint64) ([]byte, error)
	GetPreprocCompressed(id uint64) ([]byte, error)
	Delete(id uint64)
	Len() int
	IDs() []uint64
	Usage() Usage
	// Verify re-reads object id end to end and checks every present part
	// against its stored CRC32C, returning the bytes read. A failed check
	// quarantines the object and returns an error wrapping ErrCorrupt; a
	// missing object returns a plain miss.
	Verify(id uint64) (int64, error)
	// Quarantined lists objects pulled from serving by a failed
	// verification, ascending. They await a refill from a replica.
	Quarantined() []uint64
	// ClearQuarantine lifts id's quarantine after a repair re-put has been
	// re-verified, discarding the preserved corrupt copy.
	ClearQuarantine(id uint64)
}

var (
	_ ObjectStore = (*Store)(nil)
	_ ObjectStore = (*DiskStore)(nil)
)

// DiskStore persists photos under a directory: CRC32C-framed raw bytes at
// raw/<id> and framed deflate-compressed preprocessed binaries at
// pre/<id>.z (see integrity.go for the frames). Reads really hit the
// filesystem, so the NPE pipeline's load stage exercises actual I/O — and
// really verify, so at-rest rot surfaces as a quarantine, not as corrupt
// pixels served to a client. Quarantined objects are moved aside to
// quar/<id>.{raw,pre} rather than deleted: the corrupt bytes are evidence
// (which sector pattern, header or payload), and keeping them out of the
// live tree means no code path can serve them while repair is pending.
type DiskStore struct {
	dir string
	mu  sync.RWMutex
	// meta tracks sizes so Usage stays O(objects) without stat storms.
	meta map[uint64]*diskMeta
	// quar marks objects pulled from serving by a failed verification.
	quar   map[uint64]bool
	faults *durable.Faults // at-rest corruption injection (tests); nil = off
}

// SetFaults arms seeded at-rest corruption (durable.Bitflip /
// durable.Truncate rules fire after each successful object write).
func (d *DiskStore) SetFaults(f *durable.Faults) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faults = f
}

type diskMeta struct {
	rawLen  int
	preLen  int // uncompressed
	preComp int // compressed on disk
}

// OpenDir opens (creating if needed) a disk-backed store rooted at dir and
// indexes any objects already present.
func OpenDir(dir string) (*DiskStore, error) {
	for _, sub := range []string{"raw", "pre", "quar"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("photostore: %w", err)
		}
	}
	d := &DiskStore{dir: dir, meta: make(map[uint64]*diskMeta), quar: make(map[uint64]bool)}
	if err := d.reindex(); err != nil {
		return nil, err
	}
	return d, nil
}

// reindex rebuilds the metadata map from the directory contents.
func (d *DiskStore) reindex() error {
	raws, err := os.ReadDir(filepath.Join(d.dir, "raw"))
	if err != nil {
		return err
	}
	for _, e := range raws {
		id, err := strconv.ParseUint(e.Name(), 10, 64)
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		// Sizes come from the directory walk; frames are verified lazily by
		// reads and the scrubber, so reopening a big store stays cheap. A
		// file shorter than its header is damaged — the first Verify or Get
		// will quarantine it.
		n := int(info.Size()) - rawHeaderSize
		if n < 0 {
			n = 0
		}
		d.metaFor(id).rawLen = n
	}
	pres, err := os.ReadDir(filepath.Join(d.dir, "pre"))
	if err != nil {
		return err
	}
	for _, e := range pres {
		name := e.Name()
		if len(name) < 3 || name[len(name)-2:] != ".z" {
			continue
		}
		id, err := strconv.ParseUint(name[:len(name)-2], 10, 64)
		if err != nil {
			continue
		}
		blob, err := os.ReadFile(d.prePath(id))
		if err != nil {
			continue
		}
		m := d.metaFor(id)
		if len(blob) >= preHeaderSize {
			m.preComp = len(blob) - preHeaderSize
			m.preLen = int(binary.LittleEndian.Uint64(blob))
		}
	}
	// Quarantine survives restarts: the moved-aside files re-mark their IDs
	// so repair still knows what it owes.
	quars, err := os.ReadDir(filepath.Join(d.dir, "quar"))
	if err != nil {
		return err
	}
	for _, e := range quars {
		name, _, ok := strings.Cut(e.Name(), ".")
		if !ok {
			continue
		}
		id, err := strconv.ParseUint(name, 10, 64)
		if err != nil {
			continue
		}
		if !d.quar[id] {
			d.quar[id] = true
			quarantined.Add(1)
		}
	}
	return nil
}

func (d *DiskStore) metaFor(id uint64) *diskMeta {
	m := d.meta[id]
	if m == nil {
		m = &diskMeta{}
		d.meta[id] = m
	}
	return m
}

func (d *DiskStore) rawPath(id uint64) string {
	return filepath.Join(d.dir, "raw", strconv.FormatUint(id, 10))
}

func (d *DiskStore) prePath(id uint64) string {
	return filepath.Join(d.dir, "pre", strconv.FormatUint(id, 10)+".z")
}

func (d *DiskStore) quarPath(id uint64, part string) string {
	return filepath.Join(d.dir, "quar", strconv.FormatUint(id, 10)+"."+part)
}

// writeAtomic commits an object crash-consistently: temp file, fsync, rename,
// parent-directory fsync. Before this routed through durable.AtomicWriteFile
// it renamed an unsynced temp file, so a power cut could surface a
// "committed" object as empty — the rename can reach the directory before
// the data reaches the platters.
func writeAtomic(path string, data []byte) error {
	return durable.AtomicWriteFile(path, data, 0o644)
}

// writeErrors counts Puts that failed to reach disk (see DiskStore.Put).
var writeErrors = telemetry.Default.Counter("photostore_write_errors_total")

// Put implements ObjectStore. The interface swallows the error, so a failed
// write is logged, counted (photostore_write_errors_total), and the object
// is marked absent — a stale meta entry would make Usage and Len advertise
// an object GetRaw can't serve.
func (d *DiskStore) Put(id uint64, raw []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := writeAtomic(d.rawPath(id), frameRaw(raw)); err != nil {
		telemetry.ComponentLogger("photostore").Error("raw object write failed",
			slog.Uint64("id", id), slog.Any("err", err))
		writeErrors.Inc()
		// Drop the object entirely: a half-written state must read as a
		// miss, not as whatever bytes the previous version held.
		_ = os.Remove(d.rawPath(id))
		delete(d.meta, id)
		return
	}
	d.metaFor(id).rawLen = len(raw)
	if err := d.faults.Object(d.rawPath(id)); err != nil {
		telemetry.ComponentLogger("photostore").Warn("fault injection failed",
			slog.Uint64("id", id), slog.Any("err", err))
	}
}

// PutPreproc implements ObjectStore: the on-disk format is the
// length+CRC32C header of integrity.go followed by the deflate stream.
func (d *DiskStore) PutPreproc(id uint64, preproc []byte) error {
	var buf bytes.Buffer
	buf.Write(make([]byte, preHeaderSize)) // patched below once the CRC is known
	if len(preproc) < storedBlockMax {
		buf.Write(storedBlock(preproc))
	} else {
		zw := acquireFlateWriter(&buf)
		if _, err := zw.Write(preproc); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		releaseFlateWriter(zw)
	}
	frame := buf.Bytes()
	hdr := framePreHeader(len(preproc), durable.Checksum(frame[preHeaderSize:]))
	copy(frame, hdr[:])
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := writeAtomic(d.prePath(id), frame); err != nil {
		return fmt.Errorf("photostore: %w", err)
	}
	m := d.metaFor(id)
	m.preLen = len(preproc)
	m.preComp = buf.Len() - preHeaderSize
	if err := d.faults.Object(d.prePath(id)); err != nil {
		telemetry.ComponentLogger("photostore").Warn("fault injection failed",
			slog.Uint64("id", id), slog.Any("err", err))
	}
	return nil
}

// GetRaw implements ObjectStore: the frame is verified on every read, so
// at-rest rot surfaces as a quarantine + miss, never as corrupt payload.
func (d *DiskStore) GetRaw(id uint64) ([]byte, error) {
	b, err := os.ReadFile(d.rawPath(id))
	if err != nil {
		if !os.IsNotExist(err) {
			readErrors.Inc()
		}
		return nil, fmt.Errorf("photostore: no raw object %d: %w", id, err)
	}
	payload, err := parseRawFrame(b)
	if err != nil {
		d.quarantine(id, "raw", err)
		return nil, fmt.Errorf("photostore: raw object %d: %w", id, err)
	}
	return payload, nil
}

// GetPreprocCompressed implements ObjectStore (the CRC-verified deflate
// payload without the header — what the NPE read stage pulls off disk).
func (d *DiskStore) GetPreprocCompressed(id uint64) ([]byte, error) {
	b, err := os.ReadFile(d.prePath(id))
	if err != nil {
		if !os.IsNotExist(err) {
			readErrors.Inc()
		}
		return nil, fmt.Errorf("photostore: no preprocessed object %d: %w", id, err)
	}
	_, payload, perr := parsePreFrame(b)
	if perr != nil {
		d.quarantine(id, "pre", perr)
		return nil, fmt.Errorf("photostore: preprocessed object %d: %w", id, perr)
	}
	return payload, nil
}

// GetPreproc implements ObjectStore.
func (d *DiskStore) GetPreproc(id uint64) ([]byte, error) {
	blob, err := d.GetPreprocCompressed(id)
	if err != nil {
		return nil, err
	}
	out, err := Inflate(blob)
	if err != nil {
		// The CRC passed but the stream will not inflate — a store bug, not
		// media rot; surface it on the read-error counter.
		readErrors.Inc()
		return nil, err
	}
	return out, nil
}

// Delete implements ObjectStore. The interface swallows errors, so a
// removal that fails for any reason other than the file already being gone
// is logged and counted (photostore_delete_errors_total): the meta entry
// is dropped regardless — callers asked for the object to be gone — but a
// survivor file would resurrect the object at the next reindex, which the
// counter makes visible instead of silent.
func (d *DiskStore) Delete(id uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range []string{d.rawPath(id), d.prePath(id), d.quarPath(id, "raw"), d.quarPath(id, "pre")} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			telemetry.ComponentLogger("photostore").Error("object delete failed",
				slog.Uint64("id", id), slog.String("path", p), slog.Any("err", err))
			deleteErrors.Inc()
		}
	}
	delete(d.meta, id)
	if d.quar[id] {
		delete(d.quar, id)
		quarantined.Add(-1)
	}
}

// Len implements ObjectStore.
func (d *DiskStore) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.meta)
}

// IDs implements ObjectStore.
func (d *DiskStore) IDs() []uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	ids := make([]uint64, 0, len(d.meta))
	for id := range d.meta {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// quarantine pulls a corrupt object from serving: both parts move to
// quar/ (preserved as evidence — see the DiskStore comment for why not
// delete), the meta entry drops so Len/IDs/Usage stop advertising it, and
// the ID lands on the Quarantined list awaiting a refill. Idempotent under
// concurrent detection.
func (d *DiskStore) quarantine(id uint64, part string, why error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.quar[id] {
		return
	}
	_ = os.Rename(d.rawPath(id), d.quarPath(id, "raw"))
	_ = os.Rename(d.prePath(id), d.quarPath(id, "pre"))
	delete(d.meta, id)
	d.quar[id] = true
	corruptObjects.Inc()
	quarantined.Add(1)
	telemetry.ComponentLogger("photostore").Warn("object quarantined",
		slog.Uint64("id", id), slog.String("part", part), slog.Any("err", why))
}

// Verify implements ObjectStore.
func (d *DiskStore) Verify(id uint64) (int64, error) {
	d.mu.RLock()
	_, ok := d.meta[id]
	isQuar := d.quar[id]
	d.mu.RUnlock()
	if !ok {
		if isQuar {
			return 0, fmt.Errorf("photostore: object %d quarantined: %w", id, ErrCorrupt)
		}
		return 0, fmt.Errorf("photostore: no object %d", id)
	}
	var n int64
	if b, err := os.ReadFile(d.rawPath(id)); err == nil {
		if _, perr := parseRawFrame(b); perr != nil {
			d.quarantine(id, "raw", perr)
			return n, fmt.Errorf("photostore: raw object %d: %w", id, perr)
		}
		n += int64(len(b))
	} else if !os.IsNotExist(err) {
		readErrors.Inc()
		return n, err
	}
	if b, err := os.ReadFile(d.prePath(id)); err == nil {
		if _, _, perr := parsePreFrame(b); perr != nil {
			d.quarantine(id, "pre", perr)
			return n, fmt.Errorf("photostore: preprocessed object %d: %w", id, perr)
		}
		n += int64(len(b))
	} else if !os.IsNotExist(err) {
		readErrors.Inc()
		return n, err
	}
	return n, nil
}

// Quarantined implements ObjectStore.
func (d *DiskStore) Quarantined() []uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	ids := make([]uint64, 0, len(d.quar))
	for id := range d.quar {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ClearQuarantine implements ObjectStore.
func (d *DiskStore) ClearQuarantine(id uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.quar[id] {
		return
	}
	_ = os.Remove(d.quarPath(id, "raw"))
	_ = os.Remove(d.quarPath(id, "pre"))
	delete(d.quar, id)
	quarantined.Add(-1)
}

// Usage implements ObjectStore.
func (d *DiskStore) Usage() Usage {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var u Usage
	for _, m := range d.meta {
		u.RawBytes += int64(m.rawLen)
		u.PreprocBytes += int64(m.preComp)
		u.PreprocRawBytes += int64(m.preLen)
	}
	if u.RawBytes > 0 {
		u.OverheadFraction = float64(u.PreprocBytes) / float64(u.RawBytes)
	}
	if u.PreprocBytes > 0 {
		u.CompressionRatio = float64(u.PreprocRawBytes) / float64(u.PreprocBytes)
	}
	return u
}
