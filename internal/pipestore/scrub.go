// Photo durability on the store side (S36): the background scrubber that
// walks local objects verifying their at-rest checksums, and the
// ring-routed extraction / object-transfer handlers behind replicated
// placement. Repair is the tuner's Reconcile pass, which refills
// quarantined and missing objects through IngestReplica. The placement
// math itself lives in internal/placement; this file is what a store does
// with it.
package pipestore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ndpipe/internal/core"
	"ndpipe/internal/dataset"
	"ndpipe/internal/durable"
	"ndpipe/internal/photostore"
	"ndpipe/internal/placement"
	"ndpipe/internal/telemetry"
	"ndpipe/internal/wire"
)

// objectChunk bounds how many ObjectData payloads ride in one MsgObjects
// envelope. Raw photos run tens of KB, so 64 keeps a chunk well under the
// wire size limit while amortizing the per-message framing and round trip.
const objectChunk = 64

// ObjectData packages a local object for the wire: both parts read (and
// therefore CRC-verified) from the store, with fresh checksums the receiver
// re-verifies end to end. Errors out when the object is missing or
// quarantined here — the caller should try another replica.
func (n *Node) ObjectData(id uint64) (wire.ObjectData, error) {
	raw, err := n.store.GetRaw(id)
	if err != nil {
		return wire.ObjectData{}, err
	}
	pre, err := n.store.GetPreproc(id)
	if err != nil {
		return wire.ObjectData{}, err
	}
	od := wire.ObjectData{
		ID:     id,
		Raw:    raw,
		Pre:    pre,
		RawCRC: durable.Checksum(raw),
		PreCRC: durable.Checksum(pre),
	}
	n.mu.Lock()
	if idx, ok := n.imageIdx[id]; ok {
		od.Label = n.images[idx].Class
		od.Day = n.images[idx].Day
	}
	n.mu.Unlock()
	return od, nil
}

// IngestReplica stores replicated or repaired objects relayed by the tuner. Both checksums are verified before anything touches storage —
// a flip anywhere between the producer's disk and here is rejected, counted,
// and never persisted. A successfully stored object that was quarantined
// locally is re-verified and released from quarantine: this is the repair
// path. Returns how many objects were accepted; the error describes the
// first rejection, if any.
func (n *Node) IngestReplica(objs []wire.ObjectData) (int, error) {
	accepted := 0
	var firstErr error
	reject := func(err error) {
		n.met.replicaRejects.Inc()
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, o := range objs {
		if durable.Checksum(o.Raw) != o.RawCRC {
			reject(fmt.Errorf("pipestore %s: object %d raw CRC mismatch", n.ID, o.ID))
			continue
		}
		if durable.Checksum(o.Pre) != o.PreCRC {
			reject(fmt.Errorf("pipestore %s: object %d preproc CRC mismatch", n.ID, o.ID))
			continue
		}
		feat, err := core.DecodeFloats(o.Pre)
		if err != nil {
			reject(fmt.Errorf("pipestore %s: object %d preproc undecodable: %w", n.ID, o.ID, err))
			continue
		}
		if len(feat) != n.cfg.InputDim {
			reject(fmt.Errorf("pipestore %s: object %d has dim %d, want %d",
				n.ID, o.ID, len(feat), n.cfg.InputDim))
			continue
		}
		n.store.Put(o.ID, o.Raw)
		if err := n.store.PutPreproc(o.ID, o.Pre); err != nil {
			reject(err)
			continue
		}
		// If this object was quarantined here, the re-put is its repair:
		// verify the fresh copy end to end before lifting the flag.
		if _, err := n.store.Verify(o.ID); err != nil {
			reject(fmt.Errorf("pipestore %s: object %d unverifiable after put: %w", n.ID, o.ID, err))
			continue
		}
		n.store.ClearQuarantine(o.ID)
		img := dataset.Image{ID: o.ID, Class: o.Label, Day: o.Day, Feat: feat, Raw: o.Raw}
		n.mu.Lock()
		if idx, ok := n.imageIdx[o.ID]; ok {
			n.images[idx] = img
		} else {
			n.imageIdx[o.ID] = len(n.images)
			n.images = append(n.images, img)
		}
		n.mu.Unlock()
		n.met.replicaIngests.Inc()
		accepted++
	}
	return accepted, firstErr
}

// ScrubOnce verifies up to limit objects (≤0 = all), resuming where the
// previous pass left off and wrapping, so a bounded per-tick rate still
// covers the whole store over successive ticks. Corrupt objects are
// quarantined by Verify itself and wait for the tuner's Reconcile pass to
// refill them. Returns objects checked and corruptions found this pass.
func (n *Node) ScrubOnce(limit int) (checked, corrupt int) {
	n.scrubMu.Lock()
	defer n.scrubMu.Unlock()
	ids := n.store.IDs()
	if len(ids) > 0 {
		if limit <= 0 || limit > len(ids) {
			limit = len(ids)
		}
		n.mu.Lock()
		cursor := n.scrubCursor
		n.mu.Unlock()
		start := sort.Search(len(ids), func(i int) bool { return ids[i] > cursor })
		var bytes int64
		for k := 0; k < limit; k++ {
			id := ids[(start+k)%len(ids)]
			nb, err := n.store.Verify(id)
			bytes += nb
			checked++
			if errors.Is(err, photostore.ErrCorrupt) {
				corrupt++
				n.reg.Flight().Record(telemetry.FlightQuarantine, "pipestore", n.ID, int64(id), 0)
			}
			cursor = id
		}
		n.mu.Lock()
		n.scrubCursor = cursor
		n.mu.Unlock()
		n.met.scrubObjects.Add(int64(checked))
		n.met.scrubCorrupt.Add(int64(corrupt))
		n.met.scrubBytes.Add(bytes)
		n.reg.Flight().Record(telemetry.FlightScrub, "pipestore", n.ID, int64(checked), int64(corrupt))
	}
	return checked, corrupt
}

// StartScrub runs ScrubOnce(perTick) every interval until the returned stop
// function is called. Bounding the per-tick batch is what keeps scrubbing
// off the round's critical path: the pass budget is perTick Verify reads,
// not the whole store.
func (n *Node) StartScrub(interval time.Duration, perTick int) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				n.ScrubOnce(perTick)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// extractOwned is the ring-routed MsgTrainRequest path: extract exactly the
// photos this store owns under the request's ring and live set — owner =
// first live replica — partitioned across runs [FromRun, Runs). On a
// re-sent (degraded) request, PrevLive names the live set the original
// request carried, and this store covers only photos it owns now but did
// not own then: the dead store's orphans, for the runs not yet trained.
// Missing or quarantined objects are skipped rather than failing the round;
// a replica elsewhere serves them.
func (n *Node) extractOwned(tc telemetry.SpanContext, msg *wire.Message, emit func(*wire.Message) error) error {
	nrun, batch := msg.Runs, msg.BatchSize
	if nrun < 1 {
		nrun = 1
	}
	if batch < 1 {
		batch = 128
	}
	ring, err := placement.New(msg.RingStores, msg.Replication)
	if err != nil {
		return fmt.Errorf("pipestore %s: %w", n.ID, err)
	}
	live := placement.LiveSet(msg.LiveStores)
	var prev func(string) bool
	if len(msg.PrevLive) > 0 {
		prev = placement.LiveSet(msg.PrevLive)
	}
	shard := n.ownedShard(ring, live, prev)
	fromRun := msg.FromRun
	if fromRun < 0 || fromRun >= nrun {
		fromRun = 0
	}
	return n.extractShardTraced(tc, shard, fromRun, nrun, batch, emit, true)
}

// ownedShard snapshots the local images this store owns under (ring, live),
// minus anything it already owned under prev (nil = no previous view).
func (n *Node) ownedShard(ring *placement.Ring, live, prev func(string) bool) []dataset.Image {
	n.mu.Lock()
	defer n.mu.Unlock()
	shard := make([]dataset.Image, 0, len(n.images))
	for _, img := range n.images {
		owner, ok := ring.Owner(img.ID, live)
		if !ok || owner != n.ID {
			continue
		}
		if prev != nil {
			if po, pok := ring.Owner(img.ID, prev); pok && po == n.ID {
				continue // owned then too: the original request already covers it
			}
		}
		shard = append(shard, img)
	}
	return shard
}

// offlineInferOwned is the ring-routed MsgInferRequest path: relabel only
// the photos this store owns, so replicated fleets label each photo exactly
// once instead of R times.
func (n *Node) offlineInferOwned(tc telemetry.SpanContext, msg *wire.Message) (map[uint64]int, error) {
	ring, err := placement.New(msg.RingStores, msg.Replication)
	if err != nil {
		return nil, fmt.Errorf("pipestore %s: %w", n.ID, err)
	}
	shard := n.ownedShard(ring, placement.LiveSet(msg.LiveStores), nil)
	return n.offlineInferShard(tc, shard, msg.BatchSize)
}

// sendObjects streams ObjectData payloads back in bounded MsgObjects
// chunks, always closing with a Final message — even an empty set owes the
// requester its terminator.
func (n *Node) sendObjects(c *wire.Codec, objs []wire.ObjectData, epoch int) error {
	for len(objs) > objectChunk {
		if err := c.Send(&wire.Message{Type: wire.MsgObjects, StoreID: n.ID,
			Objects: objs[:objectChunk], Epoch: epoch}); err != nil {
			return err
		}
		objs = objs[objectChunk:]
	}
	return c.Send(&wire.Message{Type: wire.MsgObjects, StoreID: n.ID,
		Objects: objs, Final: true, Epoch: epoch})
}

// fetchObjects collects local copies of the requested IDs; unreadable
// (missing or quarantined) objects are simply absent from the reply — the
// requester falls back to another replica.
func (n *Node) fetchObjects(ids []uint64) []wire.ObjectData {
	out := make([]wire.ObjectData, 0, len(ids))
	for _, id := range ids {
		od, err := n.ObjectData(id)
		if err != nil {
			continue
		}
		out = append(out, od)
	}
	return out
}
