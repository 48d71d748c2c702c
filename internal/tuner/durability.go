// Photo durability on the tuner side (S36): the replicated-placement
// switch and Reconcile, the one repair loop that refills every missing or
// quarantined replica and retires dead members. Stores never talk to each
// other — every object that moves between stores is relayed through the
// tuner (MsgObjects in, MsgObjectPut out), which keeps the store protocol a
// single tuner-facing connection.
package tuner

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"strings"
	"time"

	"ndpipe/internal/placement"
	"ndpipe/internal/telemetry"
	"ndpipe/internal/wire"
)

// relayChunk bounds objects per relayed MsgObjectPut (mirrors the store
// side's chunking of MsgObjects).
const relayChunk = 64

// EnableReplication turns on replicated placement with factor r: ingest
// fans each photo to its r ring replicas, train/infer requests carry the
// ring so stores extract only what they own, and a store lost mid-round
// reroutes to survivors instead of losing images. Call before rounds start;
// every ingest front end must be configured with the same factor.
func (t *Node) EnableReplication(r int) error {
	if r < 1 {
		return fmt.Errorf("tuner: replication factor %d, want >= 1", r)
	}
	t.mu.Lock()
	t.replication = r
	t.mu.Unlock()
	t.log.Info("replication enabled", slog.Int("factor", r))
	return nil
}

// Replication returns the placement factor (0 = replication off).
func (t *Node) Replication() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.replication
}

// RingMembers returns the durable ring membership (sorted copy).
func (t *Node) RingMembers() []string {
	t.mu.Lock()
	out := append([]string(nil), t.ringMembers...)
	t.mu.Unlock()
	sort.Strings(out)
	return out
}

// durabilityPass snapshots the state a Reconcile pass runs over: the
// pass gets its own epoch so every reply is staleness-tagged exactly like
// round traffic.
type durabilityPass struct {
	epoch   int
	o       RoundOptions
	r       int
	members []string
	live    []*storeConn
}

func (t *Node) beginDurabilityPass() (durabilityPass, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.replication <= 0 {
		return durabilityPass{}, fmt.Errorf("tuner: replication not enabled")
	}
	t.epoch++
	return durabilityPass{
		epoch:   t.epoch,
		o:       t.rounds,
		r:       t.replication,
		members: append([]string(nil), t.ringMembers...),
		live:    append([]*storeConn(nil), t.stores...),
	}, nil
}

// drainInbox consumes store events until done() or the timeout. Terminal
// read errors evict the store (same as a round would) and are reported to
// onFail; stale-epoch messages are counted and dropped; everything else
// goes to accept.
func (t *Node) drainInbox(span *telemetry.Span, epoch int, timeout time.Duration,
	done func() bool, accept func(*storeConn, *wire.Message), onFail func(*storeConn, error)) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for !done() {
		select {
		case ev := <-t.inbox:
			if ev.err != nil {
				t.evict(ev.sc, ev.err, span)
				if onFail != nil {
					onFail(ev.sc, ev.err)
				}
				continue
			}
			if ev.msg.Epoch != 0 && ev.msg.Epoch != epoch {
				t.met.staleMsgs.Inc()
				continue
			}
			accept(ev.sc, ev.msg)
		case <-timer.C:
			return fmt.Errorf("tuner: durability pass timed out after %v", timeout)
		case <-t.done:
			return fmt.Errorf("tuner: node closed mid-pass")
		}
	}
	return nil
}

// fetchObjects asks one store for healthy copies of the given IDs and
// collects its chunked reply. Missing/quarantined objects are simply absent
// from the result.
func (t *Node) fetchObjects(span *telemetry.Span, sc *storeConn, ids []uint64, epoch int, o RoundOptions) ([]wire.ObjectData, error) {
	req := &wire.Message{Type: wire.MsgObjectFetch, IDs: ids, Epoch: epoch}
	if err := t.sendWithDeadline(sc, req, o.StoreTimeout); err != nil {
		t.evict(sc, err, span)
		return nil, err
	}
	var out []wire.ObjectData
	fin := false
	var failErr error
	err := t.drainInbox(span, epoch, o.RoundTimeout,
		func() bool { return fin },
		func(s *storeConn, msg *wire.Message) {
			if s != sc {
				t.met.staleMsgs.Inc()
				return
			}
			switch msg.Type {
			case wire.MsgObjects:
				out = append(out, msg.Objects...)
				if msg.Final {
					fin = true
				}
			case wire.MsgError:
				failErr = errors.New(msg.Err)
				fin = true
			default:
				t.met.staleMsgs.Inc()
			}
		},
		func(s *storeConn, err error) {
			if s == sc {
				failErr = err
				fin = true
			}
		})
	if err != nil {
		return out, err
	}
	return out, failErr
}

// pushObjects relays objects to a store in bounded MsgObjectPut chunks,
// awaiting the per-chunk ack (which carries how many the store accepted
// after re-verifying both checksums). Returns the accepted total.
func (t *Node) pushObjects(span *telemetry.Span, sc *storeConn, objs []wire.ObjectData, epoch int, o RoundOptions) (int, error) {
	total := 0
	for len(objs) > 0 {
		chunk := objs
		if len(chunk) > relayChunk {
			chunk = objs[:relayChunk]
		}
		objs = objs[len(chunk):]
		msg := &wire.Message{Type: wire.MsgObjectPut, Objects: chunk, Epoch: epoch}
		if err := t.sendWithDeadline(sc, msg, o.StoreTimeout); err != nil {
			t.evict(sc, err, span)
			return total, err
		}
		got := false
		var ackErr error
		err := t.drainInbox(span, epoch, o.RoundTimeout,
			func() bool { return got },
			func(s *storeConn, m *wire.Message) {
				if s != sc {
					t.met.staleMsgs.Inc()
					return
				}
				switch m.Type {
				case wire.MsgAck:
					total += m.Rows
					got = true
				case wire.MsgError:
					total += m.Rows
					ackErr = errors.New(m.Err)
					got = true
				default:
					t.met.staleMsgs.Inc()
				}
			},
			func(s *storeConn, err error) {
				if s == sc {
					ackErr = err
					got = true
				}
			})
		if err != nil {
			return total, err
		}
		if ackErr != nil {
			return total, ackErr
		}
	}
	return total, nil
}

// ReconcileStats summarizes one Reconcile pass.
type ReconcileStats struct {
	Stores      int                 // stores that answered the query
	Objects     int                 // distinct objects reported fleet-wide, held or quarantined
	Quarantined map[string][]uint64 // store → quarantined IDs it reported
	Missing     map[string][]uint64 // store → objects its ring slots owe but it cannot serve
	Refilled    int                 // missing copies pushed and re-verified by their store
	Failed      int                 // missing copies left unfilled
	Bytes       int64               // payload bytes relayed
	Retired     []string            // members this pass retired from the ring
	Wall        time.Duration
}

// Reconcile is the one repair loop: it makes every live ring replica hold a
// verified copy of every object, and optionally retires dead members.
//
//  1. Query: every live store scrubs (scrub = 0 skips the scrub, < 0 scrubs
//     the whole holding, n scrubs up to n objects) and reports the IDs it can
//     serve plus its quarantine list.
//  2. Diff: the desired ring is the membership minus retire; the object
//     universe is every reported ID, held or quarantined. A live desired
//     replica lacking a servable copy — never written, dropped, or
//     quarantined — is missing that object.
//  3. Refill: each gap is fetched from the first live store, in
//     registration order, whose report holds the object, and relayed to the
//     replica, whose re-put re-verifies both checksums end to end and lifts
//     any quarantine.
//  4. Retire: the retire members leave the ring only if every remaining
//     member answered and every object a retiree replicated reached all of
//     its new replicas. Otherwise the pass errors with membership unchanged:
//     the entry is the only record that those objects run under-replicated.
//
// An object counts as Failed only when no live store holds an intact copy
// (or the replica refused it). Retirees must be ring members and must not be
// live; evict a store before retiring it.
func (t *Node) Reconcile(scrub int, retire ...string) (ReconcileStats, error) {
	start := time.Now()
	p, err := t.beginDurabilityPass()
	if err != nil {
		return ReconcileStats{}, err
	}
	survivors := p.members
	for _, dead := range retire {
		if !slices.Contains(p.members, dead) {
			return ReconcileStats{}, fmt.Errorf("tuner: %s is not a ring member", dead)
		}
		for _, sc := range p.live {
			if sc.id == dead {
				return ReconcileStats{}, fmt.Errorf("tuner: %s is still live; evict it before retiring it", dead)
			}
		}
		survivors = placement.Without(survivors, dead)
	}
	oldRing, err := placement.New(p.members, p.r)
	if err != nil {
		return ReconcileStats{}, err
	}
	ring, err := placement.New(survivors, p.r)
	if err != nil {
		return ReconcileStats{}, err
	}
	span := telemetry.Default.Spans().StartTrace("tuner.reconcile")
	defer span.End()
	stats := ReconcileStats{Quarantined: make(map[string][]uint64), Missing: make(map[string][]uint64)}

	held, err := t.queryHoldings(span, p, scrub, &stats)
	if err != nil {
		return stats, err
	}
	answered := make(map[string]*storeConn, len(held))
	universe := make(map[uint64]bool)
	for sc, set := range held {
		answered[sc.id] = sc
		for id := range set {
			universe[id] = true
		}
	}
	for _, ids := range stats.Quarantined {
		for _, id := range ids {
			universe[id] = true
		}
	}
	stats.Stores, stats.Objects = len(held), len(universe)

	for id := range universe {
		for _, m := range ring.Replicas(id) {
			// Members that did not answer are skipped: healed when they
			// rejoin, or retired by a later pass.
			if sc := answered[m]; sc != nil && !held[sc][id] {
				stats.Missing[m] = append(stats.Missing[m], id)
			}
		}
	}
	// Every way a retiree's object can silently stay under-replicated — a
	// remaining member that never answered, a copy no store could supply, a
	// push the replica refused — lands in gaps, and any gap vetoes retiring.
	var gaps []string
	if len(retire) > 0 {
		for _, m := range survivors {
			if answered[m] == nil {
				gaps = append(gaps, fmt.Sprintf("member %s did not answer", m))
			}
		}
	}
	targets := make([]string, 0, len(stats.Missing))
	for m := range stats.Missing {
		targets = append(targets, m)
	}
	sort.Strings(targets)
	for _, m := range targets {
		ids := stats.Missing[m]
		slices.Sort(ids)
		n, bytes, left := t.refill(span, p, held, answered[m], ids)
		stats.Refilled += n
		stats.Failed += len(ids) - n
		stats.Bytes += bytes
		telemetry.Default.Flight().Record(telemetry.FlightRefill, "tuner", m, int64(n), int64(len(ids)-n))
		owed := 0
		for _, id := range left {
			if slices.ContainsFunc(oldRing.Replicas(id), func(m string) bool { return slices.Contains(retire, m) }) {
				owed++
			}
		}
		if owed > 0 {
			gaps = append(gaps, fmt.Sprintf("%s still lacks %d retiree objects", m, owed))
		}
	}
	if len(retire) > 0 {
		if len(gaps) > 0 {
			stats.Wall = time.Since(start)
			return stats, fmt.Errorf("tuner: retiring %v incomplete, ring membership unchanged (retry after the fleet stabilizes): %s",
				retire, strings.Join(gaps, "; "))
		}
		// Placement's minimal-movement property means only the retirees'
		// objects changed replica sets, and those copies now exist.
		t.mu.Lock()
		for _, dead := range retire {
			t.ringMembers = placement.Without(t.ringMembers, dead)
			telemetry.Default.Flight().Record(telemetry.FlightRetire, "tuner", dead, int64(len(survivors)), 0)
		}
		t.mu.Unlock()
		stats.Retired = slices.Clone(retire)
	}
	stats.Wall = time.Since(start)
	if stats.Refilled > 0 || stats.Failed > 0 || len(stats.Retired) > 0 {
		t.log.Info("reconcile pass complete",
			slog.Int("objects", stats.Objects), slog.Int("refilled", stats.Refilled),
			slog.Int("failed", stats.Failed), slog.Any("retired", stats.Retired),
			slog.Duration("wall", stats.Wall))
	}
	return stats, nil
}

// queryHoldings sends every live store one MsgScrubQuery and collects the
// reports: the IDs each answering store can serve, keyed by store, with
// each quarantine list recorded in stats.
func (t *Node) queryHoldings(span *telemetry.Span, p durabilityPass, scrub int, stats *ReconcileStats) (map[*storeConn]map[uint64]bool, error) {
	held := make(map[*storeConn]map[uint64]bool, len(p.live))
	pending := make(map[*storeConn]bool, len(p.live))
	for _, sc := range p.live {
		req := &wire.Message{Type: wire.MsgScrubQuery, BatchSize: scrub, Epoch: p.epoch}
		if err := t.sendWithDeadline(sc, req, p.o.StoreTimeout); err != nil {
			t.evict(sc, err, span)
			continue
		}
		pending[sc] = true
	}
	err := t.drainInbox(span, p.epoch, p.o.RoundTimeout,
		func() bool { return len(pending) == 0 },
		func(sc *storeConn, msg *wire.Message) {
			if msg.Type != wire.MsgScrubReport || !pending[sc] {
				t.met.staleMsgs.Inc()
				return
			}
			delete(pending, sc)
			set := make(map[uint64]bool, len(msg.IDs))
			for _, id := range msg.IDs {
				set[id] = true
			}
			held[sc] = set
			if len(msg.Quarantined) > 0 {
				stats.Quarantined[sc.id] = msg.Quarantined
			}
		},
		func(sc *storeConn, err error) { delete(pending, sc) })
	return held, err
}

// refill fetches healthy copies of ids from the stores whose reports hold
// them — asked in registration order, so the first holder serves each object
// and later holders cover whatever it failed to send — and relays them to
// target. Returns how many objects target accepted, the bytes relayed, and
// the ids target may still lack.
func (t *Node) refill(span *telemetry.Span, p durabilityPass, held map[*storeConn]map[uint64]bool,
	target *storeConn, ids []uint64) (int, int64, []uint64) {
	need := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		need[id] = true
	}
	var healthy []wire.ObjectData
	for _, src := range p.live {
		if src == target || src.evicted.Load() || len(need) == 0 {
			continue
		}
		var ask []uint64
		for _, id := range ids {
			if need[id] && held[src][id] {
				ask = append(ask, id)
			}
		}
		if len(ask) == 0 {
			continue
		}
		objs, ferr := t.fetchObjects(span, src, ask, p.epoch, p.o)
		if ferr != nil {
			t.log.Warn("refill fetch failed", slog.String("source", src.id), slog.Any("err", ferr))
		}
		for _, od := range objs {
			if need[od.ID] {
				delete(need, od.ID)
				healthy = append(healthy, od)
			}
		}
	}
	n, perr := t.pushObjects(span, target, healthy, p.epoch, p.o)
	if perr != nil {
		t.log.Warn("refill push failed", slog.String("store", target.id), slog.Any("err", perr))
	}
	var bytes int64
	left := make([]uint64, 0, len(need))
	for id := range need {
		left = append(left, id)
	}
	for _, od := range healthy {
		bytes += int64(len(od.Raw) + len(od.Pre))
		if n < len(healthy) {
			left = append(left, od.ID) // partial accept: which ones is unknown
		}
	}
	return n, bytes, left
}
