// Durability chaos suite (S36): deterministic fault schedules against the
// replicated photo layer. A store killed mid-round at R=2 must yield a
// degraded commit with ImagesLost == 0 and the same committed version as a
// healthy run; one Reconcile pass must detect an injected at-rest bit-flip
// and repair it from a replica without the corrupt bytes ever being served,
// refill a replica that was never written, and restore full replication
// after an eviction before retiring the dead member.
package tuner

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ndpipe/internal/core"
	"ndpipe/internal/dataset"
	"ndpipe/internal/faultinject"
	"ndpipe/internal/photostore"
	"ndpipe/internal/pipestore"
	"ndpipe/internal/placement"
)

// ringClusterUp builds a replicated fleet: every photo is ingested into all
// r of its ring replicas, and the tuner routes rounds by ownership. With
// disk=true each store runs on a DiskStore under a temp dir, returned in
// dirs so tests can flip bits in object files; otherwise photos live in
// memory and dirs is nil.
func ringClusterUp(t *testing.T, nStores, r, images int, seed int64, disk bool,
	wrap func(i int, c net.Conn) net.Conn) (*Node, []*chaosStore, *dataset.World, *placement.Ring, []string) {
	t.Helper()
	cfg := core.DefaultModelConfig()
	wcfg := dataset.DefaultConfig(seed)
	wcfg.InitialImages = images
	world := dataset.NewWorld(wcfg)

	tn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.EnableReplication(r); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close(); tn.Close() })
	accepted := make(chan error, 1)
	go func() { accepted <- tn.AcceptStores(ln, nStores) }()

	members := make([]string, nStores)
	for i := range members {
		members[i] = fmt.Sprintf("cs-%d", i)
	}
	ring, err := placement.New(members, r)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	var stores []*chaosStore
	for i := 0; i < nStores; i++ {
		var ps *pipestore.Node
		if disk {
			dirs = append(dirs, filepath.Join(t.TempDir(), "photos"))
			photos, perr := photostore.OpenDir(dirs[i])
			if perr != nil {
				t.Fatal(perr)
			}
			ps, err = pipestore.NewWithStorage(members[i], cfg, photos)
		} else {
			ps, err = pipestore.New(members[i], cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		var owned []dataset.Image
		for _, img := range world.Images() {
			for _, rep := range ring.Replicas(img.ID) {
				if rep == ps.ID {
					owned = append(owned, img)
					break
				}
			}
		}
		if err := ps.Ingest(owned); err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if wrap != nil {
			conn = wrap(i, conn)
		}
		cs := &chaosStore{ps: ps, conn: conn, done: make(chan error, 1)}
		go func() { cs.done <- cs.ps.Serve(cs.conn) }()
		stores = append(stores, cs)
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	return tn, stores, world, ring, dirs
}

// The acceptance bar of the tentpole: at R=2, a store killed mid-round
// (its third write: after the hello and the first of run 0's two feature
// batches, the second is dropped with the conn) commits degraded with
// ImagesLost == 0 — every photo the dead store was serving is re-extracted
// from a surviving replica — trains every photo exactly once, and lands on
// the same committed version as an identical healthy run.
func TestDurabilityRoundSurvivesStoreDeathZeroLoss(t *testing.T) {
	const nImages = 600
	inj, err := faultinject.New(7, faultinject.Rule{Kind: faultinject.Drop, Op: faultinject.OpWrite, After: 3})
	if err != nil {
		t.Fatal(err)
	}
	victim := 2
	wrap := func(i int, c net.Conn) net.Conn {
		if i == victim {
			return inj.Conn(c)
		}
		return c
	}
	tn, stores, world, _, _ := ringClusterUp(t, 3, 2, nImages, 41, false, wrap)
	tn.SetRoundOptions(chaosRoundOptions())

	rep, err := tn.FineTune(2, 64, soakOpts())
	if err != nil {
		t.Fatalf("round must survive one death at R=2: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("report must be marked degraded")
	}
	if len(rep.FailedStores) != 1 || rep.FailedStores[0] != stores[victim].ps.ID {
		t.Fatalf("FailedStores = %v, want [%s]", rep.FailedStores, stores[victim].ps.ID)
	}
	if rep.ImagesLost != 0 {
		t.Fatalf("ImagesLost = %d, want 0: every photo has a live replica at R=2", rep.ImagesLost)
	}
	if rep.Images != len(world.Images()) {
		t.Fatalf("trained %d images, want every one of %d exactly once", rep.Images, len(world.Images()))
	}

	// Healthy twin: same world, same options, nobody dies.
	tn2, _, _, _, _ := ringClusterUp(t, 3, 2, nImages, 41, false, nil)
	tn2.SetRoundOptions(chaosRoundOptions())
	rep2, err := tn2.FineTune(2, 64, soakOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Images != rep.Images {
		t.Fatalf("degraded run trained %d images, healthy run %d", rep.Images, rep2.Images)
	}
	if tn.ModelVersion() != tn2.ModelVersion() {
		t.Fatalf("committed version %d after degraded run, healthy run committed %d",
			tn.ModelVersion(), tn2.ModelVersion())
	}
}

// flipObjectByte corrupts one payload byte of an at-rest raw object file.
func flipObjectByte(t *testing.T, ps *pipestore.Node, dir string, id uint64) {
	t.Helper()
	path := filepath.Join(dir, "raw", fmt.Sprintf("%d", id))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 9 {
		t.Fatalf("raw object %d too short to corrupt: %d bytes", id, len(b))
	}
	b[len(b)-1] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_ = ps // the node stays live; its next CRC-verified read detects the flip
}

// An at-rest bit-flip is detected by the reconcile pass's fleet-wide scrub,
// quarantined, and repaired end to end over the wire — the tuner fetches a
// healthy copy from the other ring replica and relays it back — after which
// the object reads back byte-identical to the original.
func TestScrubRepairsInjectedBitflipOverWire(t *testing.T) {
	tn, stores, world, ring, dirs := ringClusterUp(t, 3, 2, 120, 43, true, nil)

	// Corrupt one photo's raw object on its first replica.
	var victimImg dataset.Image
	victimStore := -1
	for _, img := range world.Images() {
		reps := ring.Replicas(img.ID)
		for i, cs := range stores {
			if cs.ps.ID == reps[0] {
				victimImg = img
				victimStore = i
			}
		}
		if victimStore >= 0 {
			break
		}
	}
	flipObjectByte(t, stores[victimStore].ps, dirs[victimStore], victimImg.ID)

	stats, err := tn.Reconcile(-1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stores != 3 {
		t.Fatalf("scrubbed %d stores, want 3", stats.Stores)
	}
	q := stats.Quarantined[stores[victimStore].ps.ID]
	if len(q) != 1 || q[0] != victimImg.ID {
		t.Fatalf("store %s quarantined %v, want [%d]", stores[victimStore].ps.ID, q, victimImg.ID)
	}
	if stats.Refilled != 1 || stats.Failed != 0 {
		t.Fatalf("repaired=%d failed=%d, want 1/0", stats.Refilled, stats.Failed)
	}
	raw, err := stores[victimStore].ps.Storage().GetRaw(victimImg.ID)
	if err != nil {
		t.Fatalf("repaired object unreadable: %v", err)
	}
	// The healthy second replica holds the reference copy.
	var healthy []byte
	for i, cs := range stores {
		if i == victimStore {
			continue
		}
		if b, err := cs.ps.Storage().GetRaw(victimImg.ID); err == nil {
			healthy = b
			break
		}
	}
	if healthy == nil {
		t.Fatal("no healthy replica holds the reference copy")
	}
	if string(raw) != string(healthy) {
		t.Fatal("repaired object differs from the healthy replica's copy")
	}
	if len(stores[victimStore].ps.Storage().Quarantined()) != 0 {
		t.Fatal("quarantine must be lifted after repair")
	}
}

// A corrupt object is never served: reads return an error (not the flipped
// bytes), the round routes around it — the survivor replica extracts it —
// and after repair the fleet is whole again.
func TestQuarantinedObjectNeverServed(t *testing.T) {
	tn, stores, world, ring, dirs := ringClusterUp(t, 3, 2, 150, 47, true, nil)
	tn.SetRoundOptions(chaosRoundOptions())

	img := world.Images()[0]
	reps := ring.Replicas(img.ID)
	primary := -1
	for i, cs := range stores {
		if cs.ps.ID == reps[0] {
			primary = i
		}
	}
	flipObjectByte(t, stores[primary].ps, dirs[primary], img.ID)

	// The corrupt copy must never come back from a read.
	if raw, err := stores[primary].ps.Storage().GetRaw(img.ID); err == nil {
		t.Fatalf("corrupt raw object served: %d bytes", len(raw))
	}
	if len(stores[primary].ps.Storage().Quarantined()) != 1 {
		t.Fatal("detected corruption must quarantine the object")
	}
	// Quarantined means quarantined: the read keeps failing, it never heals
	// silently or serves stale bytes.
	if _, err := stores[primary].ps.Storage().GetRaw(img.ID); err == nil {
		t.Fatal("quarantined object served on re-read")
	}

	// A round still trains every OTHER photo exactly once. The corrupt
	// photo's owner skips it (its local copy is quarantined, never decoded);
	// nothing trains on garbage.
	rep, err := tn.FineTune(2, 32, soakOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatalf("no store died, round must not be degraded: %+v", rep)
	}
	if want := len(world.Images()) - 1; rep.Images != want {
		t.Fatalf("trained %d images, want %d (all but the quarantined one)", rep.Images, want)
	}

	// Reconcile heals the flip from the surviving replica; the next round
	// is whole.
	stats, err := tn.Reconcile(-1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Refilled != 1 {
		t.Fatalf("repaired = %d, want 1", stats.Refilled)
	}
	rep2, err := tn.FineTune(2, 32, soakOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Images != len(world.Images()) {
		t.Fatalf("post-repair round trained %d images, want %d", rep2.Images, len(world.Images()))
	}
}

// After a store dies and the round commits degraded, a reconcile pass that
// retires it re-replicates its objects from the survivors: with 3 members at R=2 collapsing to 2, every
// photo must end up on both survivors, and the dead member leaves the ring.
// The victim owns ~100 photos, one feature batch per run: its writes are the
// hello, run 0's batch, and — dropped with the conn — run 1's.
func TestRebuildRestoresReplicationAfterStoreLoss(t *testing.T) {
	const nImages = 300
	inj, err := faultinject.New(11, faultinject.Rule{Kind: faultinject.Drop, Op: faultinject.OpWrite, After: 3})
	if err != nil {
		t.Fatal(err)
	}
	victim := 1
	wrap := func(i int, c net.Conn) net.Conn {
		if i == victim {
			return inj.Conn(c)
		}
		return c
	}
	tn, stores, world, _, _ := ringClusterUp(t, 3, 2, nImages, 53, false, wrap)
	tn.SetRoundOptions(chaosRoundOptions())

	rep, err := tn.FineTune(2, 64, soakOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.ImagesLost != 0 {
		t.Fatalf("want degraded zero-loss commit, got degraded=%v lost=%d", rep.Degraded, rep.ImagesLost)
	}
	dead := stores[victim].ps.ID

	rb, err := tn.Reconcile(0, dead)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Refilled == 0 {
		t.Fatal("rebuild moved no objects")
	}
	if len(rb.Retired) != 1 || rb.Retired[0] != dead {
		t.Fatalf("retired %v, want [%s]", rb.Retired, dead)
	}
	for _, m := range tn.RingMembers() {
		if m == dead {
			t.Fatalf("dead member %s still in the ring after rebuild", dead)
		}
	}
	// Survivor ring at R=2 over 2 members: every photo on both.
	for _, img := range world.Images() {
		for _, i := range []int{0, 2} {
			if _, err := stores[i].ps.Storage().GetRaw(img.ID); err != nil {
				t.Fatalf("photo %d missing on survivor %s after rebuild: %v", img.ID, stores[i].ps.ID, err)
			}
		}
	}
}

// A retiring pass that cannot prove every object was delivered — here a
// second store drops before the pass, so a remaining ring member never
// answers and some of the dead member's photos have no reachable source or
// destination — must NOT retire the dead member from the ring: the membership entry is the only record that those photos run
// under-replicated. The pass errors, the ring is unchanged, and a retry
// after the fleet stabilizes can still find the gap. The first victim dies
// on its third write: run 1's (only) feature batch, after the hello and run 0's.
func TestRebuildIncompleteKeepsRingMembership(t *testing.T) {
	const nImages = 200
	inj, err := faultinject.New(13, faultinject.Rule{Kind: faultinject.Drop, Op: faultinject.OpWrite, After: 3})
	if err != nil {
		t.Fatal(err)
	}
	victim := 1
	wrap := func(i int, c net.Conn) net.Conn {
		if i == victim {
			return inj.Conn(c)
		}
		return c
	}
	tn, stores, _, _, _ := ringClusterUp(t, 4, 2, nImages, 59, false, wrap)
	tn.SetRoundOptions(chaosRoundOptions())

	rep, err := tn.FineTune(2, 64, soakOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatal("victim must have been evicted mid-round")
	}
	dead := stores[victim].ps.ID

	// Take a second store down right before the rebuild.
	stores[2].conn.Close()

	before := tn.RingMembers()
	if _, err := tn.Reconcile(0, dead); err == nil {
		t.Fatal("rebuild with undeliverable objects must error, not retire the ring member")
	}
	after := tn.RingMembers()
	if len(after) != len(before) {
		t.Fatalf("ring membership changed on incomplete rebuild: %v -> %v", before, after)
	}
	found := false
	for _, m := range after {
		if m == dead {
			found = true
		}
	}
	if !found {
		t.Fatalf("dead member %s retired despite incomplete rebuild; ring: %v", dead, after)
	}
}

// A replica that is MISSING — a replica write that failed at ingest, or an
// object dropped by an interrupted rebuild — is invisible to checksum
// scrubbing: there are no bytes for a CRC to flag. The reconcile pass finds
// the gap by diffing store holdings against ring placement and refills it
// from a live replica with a healthy copy.
func TestAntiEntropyRefillsMissingReplica(t *testing.T) {
	tn, stores, world, ring, _ := ringClusterUp(t, 3, 2, 120, 61, false, nil)
	tn.SetRoundOptions(chaosRoundOptions())

	// Simulate a failed replica write: drop one photo from its secondary.
	img := world.Images()[0]
	reps := ring.Replicas(img.ID)
	secondary := -1
	for i, cs := range stores {
		if cs.ps.ID == reps[1] {
			secondary = i
		}
	}
	stores[secondary].ps.Storage().Delete(img.ID)
	if _, err := stores[secondary].ps.Storage().GetRaw(img.ID); err == nil {
		t.Fatal("precondition: the secondary replica must be missing")
	}

	// Reconcile finds and refills exactly that gap.
	st, err := tn.Reconcile(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stores != 3 {
		t.Fatalf("inventoried %d stores, want 3", st.Stores)
	}
	if st.Objects != len(world.Images()) {
		t.Fatalf("object universe %d, want %d", st.Objects, len(world.Images()))
	}
	if miss := st.Missing[reps[1]]; len(miss) != 1 || miss[0] != img.ID {
		t.Fatalf("missing[%s] = %v, want [%d]", reps[1], miss, img.ID)
	}
	if st.Refilled != 1 || st.Failed != 0 {
		t.Fatalf("refills=%d failed=%d, want 1/0", st.Refilled, st.Failed)
	}
	raw, err := stores[secondary].ps.Storage().GetRaw(img.ID)
	if err != nil {
		t.Fatalf("refilled replica unreadable: %v", err)
	}
	healthy, err := stores[0].ps.Storage().GetRaw(img.ID)
	if err != nil {
		// stores[0] may not be a replica; find one that is.
		for _, cs := range stores {
			if cs.ps.ID == reps[0] {
				healthy, err = cs.ps.Storage().GetRaw(img.ID)
			}
		}
		if err != nil {
			t.Fatalf("no healthy replica readable: %v", err)
		}
	}
	if string(raw) != string(healthy) {
		t.Fatal("refilled replica differs from the healthy copy")
	}

	// Idempotent: a whole fleet finds nothing to do.
	st2, err := tn.Reconcile(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Missing) != 0 || st2.Refilled != 0 || st2.Failed != 0 {
		t.Fatalf("second pass must be a no-op: %+v", st2)
	}
}

// Reconcile refuses to run, or to retire, whenever retiring could erase the
// only record that objects run under-replicated — and a refused pass leaves
// ring membership exactly as it was.
func TestReconcileErrorsLeaveMembershipUnchanged(t *testing.T) {
	t.Run("replication off", func(t *testing.T) {
		tn, err := New(core.DefaultModelConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer tn.Close()
		before := tn.RingMembers()
		if _, err := tn.Reconcile(0); err == nil {
			t.Fatal("reconcile without replication must error")
		}
		if after := tn.RingMembers(); !slices.Equal(after, before) {
			t.Fatalf("ring membership changed: %v -> %v", before, after)
		}
	})

	tn, stores, _, _, _ := ringClusterUp(t, 4, 2, 80, 67, false, nil)
	tn.SetRoundOptions(chaosRoundOptions())
	before := tn.RingMembers()
	unchanged := func(t *testing.T) {
		t.Helper()
		if after := tn.RingMembers(); !slices.Equal(after, before) {
			t.Fatalf("ring membership changed on a refused pass: %v -> %v", before, after)
		}
	}
	t.Run("retiree still live", func(t *testing.T) {
		if _, err := tn.Reconcile(0, stores[0].ps.ID); err == nil {
			t.Fatal("retiring a live store must error")
		}
		unchanged(t)
	})
	t.Run("retiree not a ring member", func(t *testing.T) {
		if _, err := tn.Reconcile(0, "cs-99"); err == nil {
			t.Fatal("retiring a non-member must error")
		}
		unchanged(t)
	})
	t.Run("remaining member did not answer", func(t *testing.T) {
		// Two stores drop. A pass that retires nobody evicts both and is no
		// error: a silent member is healed when it rejoins.
		stores[2].conn.Close()
		stores[3].conn.Close()
		st, err := tn.Reconcile(0)
		if err != nil {
			t.Fatal(err)
		}
		if st.Stores != 2 {
			t.Fatalf("%d stores answered, want 2", st.Stores)
		}
		// Retiring one of them must not proceed while the other, which
		// stays in the ring, cannot confirm it holds its copies.
		if _, err := tn.Reconcile(0, stores[3].ps.ID); err == nil {
			t.Fatal("retiring with a silent remaining member must error")
		}
		unchanged(t)
	})
}

// One pass heals every kind of gap together. At R=2 over 4 stores, store A
// holds a quarantined copy, store B lacks a copy it owes, and member C died
// mid-round. Afterwards every photo is byte-identical on both of its
// survivor-ring replicas, C is retired, and a second pass finds nothing to do.
func TestReconcileHealsQuarantineGapAndDeadMemberInOnePass(t *testing.T) {
	inj, err := faultinject.New(13, faultinject.Rule{Kind: faultinject.Drop, Op: faultinject.OpWrite, After: 3})
	if err != nil {
		t.Fatal(err)
	}
	const victim = 1
	wrap := func(i int, c net.Conn) net.Conn {
		if i == victim {
			return inj.Conn(c)
		}
		return c
	}
	tn, stores, world, ring, dirs := ringClusterUp(t, 4, 2, 200, 59, true, wrap)
	tn.SetRoundOptions(chaosRoundOptions())
	rep, err := tn.FineTune(2, 64, soakOpts())
	if err != nil {
		t.Fatal(err)
	}
	dead := stores[victim].ps.ID
	if len(rep.FailedStores) != 1 || rep.FailedStores[0] != dead {
		t.Fatalf("FailedStores = %v, want [%s]", rep.FailedStores, dead)
	}

	// Pick two photos C never replicated: one to quarantine on its first
	// replica A, one to drop from its second replica B.
	byID := make(map[string]int, len(stores))
	for i, cs := range stores {
		byID[cs.ps.ID] = i
	}
	var picked []dataset.Image
	for _, img := range world.Images() {
		if reps := ring.Replicas(img.ID); !slices.Contains(reps, dead) {
			picked = append(picked, img)
			if len(picked) == 2 {
				break
			}
		}
	}
	if len(picked) != 2 {
		t.Fatal("precondition: need two photos the dead member never held")
	}
	quarID, gapID := picked[0].ID, picked[1].ID
	a, b := byID[ring.Replicas(quarID)[0]], byID[ring.Replicas(gapID)[1]]
	flipObjectByte(t, stores[a].ps, dirs[a], quarID)
	stores[b].ps.Storage().Delete(gapID)

	st, err := tn.Reconcile(-1, dead)
	if err != nil {
		t.Fatal(err)
	}
	if q := st.Quarantined[stores[a].ps.ID]; len(q) != 1 || q[0] != quarID {
		t.Fatalf("store %s quarantined %v, want [%d]", stores[a].ps.ID, q, quarID)
	}
	if !slices.Contains(st.Missing[stores[b].ps.ID], gapID) {
		t.Fatalf("missing[%s] = %v, want it to include %d", stores[b].ps.ID, st.Missing[stores[b].ps.ID], gapID)
	}
	missing := 0
	for _, ids := range st.Missing {
		missing += len(ids)
	}
	if st.Refilled != missing || missing <= 2 {
		t.Fatalf("refilled %d of %d missing copies, want all of them and more than the two injected gaps", st.Refilled, missing)
	}
	if st.Failed != 0 || len(st.Retired) != 1 || st.Retired[0] != dead {
		t.Fatalf("failed=%d retired=%v, want 0 and [%s]", st.Failed, st.Retired, dead)
	}
	if slices.Contains(tn.RingMembers(), dead) {
		t.Fatalf("dead member %s still in the ring: %v", dead, tn.RingMembers())
	}

	survivors, err := placement.New(tn.RingMembers(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range world.Images() {
		var first []byte
		for _, m := range survivors.Replicas(img.ID) {
			raw, err := stores[byID[m]].ps.Storage().GetRaw(img.ID)
			if err != nil {
				t.Fatalf("photo %d unreadable on survivor replica %s: %v", img.ID, m, err)
			}
			if first == nil {
				first = raw
			} else if string(raw) != string(first) {
				t.Fatalf("photo %d differs between its survivor replicas", img.ID)
			}
		}
	}

	st2, err := tn.Reconcile(-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Missing) != 0 || st2.Refilled != 0 || st2.Failed != 0 {
		t.Fatalf("second pass must be a no-op: missing=%v refilled=%d failed=%d", st2.Missing, st2.Refilled, st2.Failed)
	}
}
