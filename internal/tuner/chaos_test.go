// Chaos tests: deterministic fault schedules (seeded faultinject wrappers,
// seeded kill/restart sequences) driving the quorum round protocol. They
// prove the three tentpole properties end to end: a round survives store
// death and commits degraded on the quorum, drops below quorum are hard
// errors that do not advance the model, and evicted stores rejoin through
// the catch-up path and participate in the next round.
package tuner

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"ndpipe/internal/core"
	"ndpipe/internal/dataset"
	"ndpipe/internal/faultinject"
	"ndpipe/internal/ftdmp"
	"ndpipe/internal/pipestore"
	"ndpipe/internal/wire"
)

// chaosStore is one fleet member plus the handles chaos tests need: its
// client-side conn (possibly fault-wrapped) and its Serve exit channel.
type chaosStore struct {
	ps   *pipestore.Node
	conn net.Conn
	done chan error
}

// chaosClusterUp is clusterUp with knobs: world size and a per-store conn
// wrapper (the faultinject seam).
func chaosClusterUp(t *testing.T, nStores, images int, seed int64, wrap func(i int, c net.Conn) net.Conn) (*Node, []*chaosStore, *dataset.World, net.Listener) {
	t.Helper()
	cfg := core.DefaultModelConfig()
	wcfg := dataset.DefaultConfig(seed)
	wcfg.InitialImages = images
	world := dataset.NewWorld(wcfg)

	tn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close(); tn.Close() })
	accepted := make(chan error, 1)
	go func() { accepted <- tn.AcceptStores(ln, nStores) }()

	shards := world.Shard(nStores)
	var stores []*chaosStore
	for i := 0; i < nStores; i++ {
		ps, err := pipestore.New(fmt.Sprintf("cs-%d", i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.Ingest(shards[i]); err != nil {
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
	return tn, stores, world, ln
}

// rejoin reconnects a dead store through the normal registration path (the
// Tuner-side catch-up protocol runs inside AddStore).
func rejoin(t *testing.T, tn *Node, ln net.Listener, cs *chaosStore, wrap func(net.Conn) net.Conn) {
	t.Helper()
	res := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			res <- err
			return
		}
		res <- tn.AddStore(conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		conn = wrap(conn)
	}
	cs.conn = conn
	cs.done = make(chan error, 1)
	go func() { cs.done <- cs.ps.Serve(cs.conn) }()
	if err := <-res; err != nil {
		t.Fatalf("rejoin %s: %v", cs.ps.ID, err)
	}
}

func soakOpts() ftdmp.TrainOptions {
	o := ftdmp.DefaultTrainOptions()
	o.MaxEpochs = 4
	return o
}

func chaosRoundOptions() RoundOptions {
	return RoundOptions{
		Quorum:       2,
		StoreTimeout: 5 * time.Second,
		RoundTimeout: 60 * time.Second,
		MaxRetries:   2,
		Backoff:      5 * time.Millisecond,
		BackoffCap:   50 * time.Millisecond,
		Seed:         1,
	}
}

// One of three stores is killed mid-round by a deterministic fault: its conn
// drops at a fixed write, and one write is one message. A store's writes are
// the hello (1), then with 300 photos in 2 runs of batch 64 three feature
// batches per run (2–4, 5–7), then spans, metrics, spans and the ack. Write 3
// is run 0's second batch: the store dies mid feature stream. With Quorum 2
// the round must commit degraded on the survivors.
func TestQuorumRoundSurvivesStoreDeath(t *testing.T) {
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
	tn, stores, world, _ := chaosClusterUp(t, 3, 900, 41, wrap)
	tn.SetRoundOptions(chaosRoundOptions())

	rep, err := tn.FineTune(2, 64, soakOpts())
	if err != nil {
		t.Fatalf("round must survive one death with quorum 2: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("report must be marked degraded")
	}
	if len(rep.FailedStores) != 1 || rep.FailedStores[0] != stores[victim].ps.ID {
		t.Fatalf("FailedStores = %v, want [%s]", rep.FailedStores, stores[victim].ps.ID)
	}
	if rep.Participants != 3 {
		t.Fatalf("participants = %d, want 3", rep.Participants)
	}
	surv := stores[0].ps.NumImages() + stores[1].ps.NumImages()
	if rep.Images < surv {
		t.Fatalf("trained on %d images, survivors alone hold %d", rep.Images, surv)
	}
	if rep.Images+rep.ImagesLost > world.NumImages() {
		t.Fatalf("accounting overflow: trained %d + lost %d > world %d",
			rep.Images, rep.ImagesLost, world.NumImages())
	}
	if rep.ModelVersion != 1 || tn.ModelVersion() != 1 {
		t.Fatalf("degraded round must still commit v1, got report v%d tuner v%d", rep.ModelVersion, tn.ModelVersion())
	}
	// The victim was evicted from the fleet and its session torn down.
	if tn.NumStores() != 2 {
		t.Fatalf("fleet size %d after eviction, want 2", tn.NumStores())
	}
	select {
	case <-stores[victim].done:
	case <-time.After(10 * time.Second):
		t.Fatal("victim session did not terminate")
	}
	// Survivors installed the delta.
	for _, i := range []int{0, 1} {
		if v := stores[i].ps.ModelVersion(); v != 1 {
			t.Fatalf("survivor %s at v%d, want 1", stores[i].ps.ID, v)
		}
	}
}

// Two of three stores die mid-round: below Quorum 2 the round must return
// a hard error naming the casualties, and the model version must not
// advance. 200 photos per store make two batches per run (writes 2–3 and
// 4–5 after the hello): store 1 loses run 0's final batch (write 3), store
// 2 run 1's first (write 4).
func TestQuorumHardErrorBelowQuorum(t *testing.T) {
	wrap := func(i int, c net.Conn) net.Conn {
		if i == 0 {
			return c
		}
		inj, err := faultinject.New(int64(10+i), faultinject.Rule{Kind: faultinject.Drop, Op: faultinject.OpWrite, After: 2 + i})
		if err != nil {
			t.Fatal(err)
		}
		return inj.Conn(c)
	}
	tn, stores, _, _ := chaosClusterUp(t, 3, 600, 43, wrap)
	tn.SetRoundOptions(chaosRoundOptions())

	_, err := tn.FineTune(2, 64, soakOpts())
	if err == nil {
		t.Fatal("round below quorum must fail hard")
	}
	if !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("error must cite the quorum: %v", err)
	}
	for _, cs := range stores[1:] {
		if !strings.Contains(err.Error(), cs.ps.ID) {
			t.Fatalf("error must name casualty %s: %v", cs.ps.ID, err)
		}
	}
	if tn.ModelVersion() != 0 {
		t.Fatalf("failed round must not commit, tuner at v%d", tn.ModelVersion())
	}
}

// An evicted store rejoins through AddStore, is caught up by a composite
// delta, and participates fully in the next round. The victim (300 photos,
// three batches per run) dies on write 3: run 0's second feature batch.
func TestEvictedStoreRejoins(t *testing.T) {
	inj, err := faultinject.New(3, faultinject.Rule{Kind: faultinject.Drop, Op: faultinject.OpWrite, After: 3})
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
	tn, stores, world, ln := chaosClusterUp(t, 3, 900, 47, wrap)
	tn.SetRoundOptions(chaosRoundOptions())

	rep, err := tn.FineTune(2, 64, soakOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || tn.NumStores() != 2 {
		t.Fatalf("setup: want a degraded round with one eviction (degraded=%v fleet=%d)", rep.Degraded, tn.NumStores())
	}
	select {
	case <-stores[victim].done:
	case <-time.After(10 * time.Second):
		t.Fatal("victim session did not terminate")
	}

	// Rejoin with a clean conn: the catch-up delta must land it on v1.
	rejoin(t, tn, ln, stores[victim], nil)
	if v := stores[victim].ps.ModelVersion(); v != 1 {
		t.Fatalf("rejoined store at v%d, want catch-up to 1", v)
	}
	if tn.NumStores() != 3 {
		t.Fatalf("fleet size %d after rejoin, want 3", tn.NumStores())
	}

	// Next round: full strength again.
	rep2, err := tn.FineTune(2, 64, soakOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Degraded || rep2.Participants != 3 {
		t.Fatalf("post-rejoin round: degraded=%v participants=%d", rep2.Degraded, rep2.Participants)
	}
	if rep2.Images != world.NumImages() {
		t.Fatalf("post-rejoin round trained %d of %d images", rep2.Images, world.NumImages())
	}
	for _, cs := range stores {
		if cs.ps.ModelVersion() != 2 {
			t.Fatalf("store %s at v%d, want 2", cs.ps.ID, cs.ps.ModelVersion())
		}
	}
}

// A store that stays live (answers pings) but never delivers features must
// not be evicted by the silence detector — but the round's own per-phase
// timer must still fail the round.
func TestRoundTimeoutFailsRoundWhileStoreStaysLive(t *testing.T) {
	tn, ln := tunerWithListener(t)
	tn.SetRoundOptions(RoundOptions{
		Quorum:       1,
		StoreTimeout: 300 * time.Millisecond,
		RoundTimeout: 1200 * time.Millisecond,
		MaxRetries:   -1,
		Backoff:      time.Millisecond,
		Seed:         5,
	})
	done := make(chan error, 1)
	go func() { done <- tn.AcceptStores(ln, 1) }()
	fs := dialFake(t, tn, ln, "sleepy")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			msg, err := fs.codec.Recv()
			if err != nil {
				return
			}
			if msg.Type == wire.MsgPing {
				_ = fs.codec.Send(&wire.Message{Type: wire.MsgPong, StoreID: "sleepy", Epoch: msg.Epoch})
			}
			// ...but never any features.
		}
	}()
	start := time.Now()
	_, err := tn.FineTune(1, 64, trainOpts())
	if err == nil || !strings.Contains(err.Error(), "timed out gathering") {
		t.Fatalf("round must fail on its phase timer, got %v", err)
	}
	if el := time.Since(start); el < time.Second || el > 30*time.Second {
		t.Fatalf("round ended after %v, want ≈ the 1.2s round timeout", el)
	}
	// The pongs kept it alive: a round timeout is not the store's fault.
	if tn.NumStores() != 1 {
		t.Fatal("ping-answering store must not be evicted on a round timeout")
	}
}

// A message tagged with another round's epoch — even one that would
// otherwise be a protocol violation — is dropped, not acted on.
func TestStaleEpochMessageDropped(t *testing.T) {
	tn, ln := tunerWithListener(t)
	done := make(chan error, 1)
	go func() { done <- tn.AcceptStores(ln, 1) }()
	fs := dialFake(t, tn, ln, "time-traveler")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	cols := core.DefaultModelConfig().FeatureDim
	go func() {
		req, err := fs.codec.Recv()
		if err != nil {
			return
		}
		// Poison from a "previous round": wrong width, stale epoch. If the
		// epoch filter were broken this would fail the store (quorum 1 →
		// the whole round).
		_ = fs.codec.Send(&wire.Message{
			Type: wire.MsgFeatures, StoreID: "time-traveler",
			Run: 0, Rows: 1, Cols: 3, X: []wire.Half{0x3c00, 0x4000, 0x4200}, Labels: []int{9}, Epoch: 99,
		})
		// The real contribution, correctly tagged.
		_ = fs.codec.Send(&wire.Message{
			Type: wire.MsgFeatures, StoreID: "time-traveler",
			Run: 0, Rows: 1, Cols: cols, X: make([]wire.Half, cols), Labels: []int{0},
			Final: true, Epoch: req.Epoch,
		})
		for {
			msg, err := fs.codec.Recv()
			if err != nil {
				return
			}
			switch msg.Type {
			case wire.MsgPing:
				_ = fs.codec.Send(&wire.Message{Type: wire.MsgPong, StoreID: "time-traveler", Epoch: msg.Epoch})
			case wire.MsgModelDelta:
				_ = fs.codec.Send(&wire.Message{Type: wire.MsgAck, StoreID: "time-traveler", Epoch: msg.Epoch})
				return
			}
		}
	}()
	rep, err := tn.FineTune(1, 64, trainOpts())
	if err != nil {
		t.Fatalf("stale-tagged poison must be ignored: %v", err)
	}
	if rep.Degraded || rep.Images != 1 {
		t.Fatalf("round saw through the filter: %+v", rep)
	}
}

// Seeded soak: 3 stores whose connections carry deterministic drop faults,
// 10 rounds with kill/restart churn. Properties: the model version is
// monotone, advances exactly on committed rounds, never on failed ones,
// and the fleet always recovers to full strength via rejoin.
func TestChaosSoakSeededKillRestart(t *testing.T) {
	const (
		nStores = 3
		rounds  = 10
	)
	rng := rand.New(rand.NewSource(99))
	nextInjector := func() *faultinject.Injector {
		inj, err := faultinject.New(rng.Int63n(1<<30)+1, faultinject.Rule{
			Kind: faultinject.Drop,
			Op:   faultinject.OpWrite,
			// A session opens with at most three writes outside any round —
			// hello, catch-up ack, first metrics shipment — and with 100
			// photos a round is five more per store: one feature batch per
			// run, spans, spans, ack. Messages 20–59 therefore fall in a
			// session's rounds 4 to 10, at any of the five positions: a
			// store dies about once per soak, never during the handshake.
			After: 20 + int(rng.Int63n(40)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	wrap := func(i int, c net.Conn) net.Conn { return nextInjector().Conn(c) }
	tn, stores, world, ln := chaosClusterUp(t, nStores, 300, 53, wrap)
	tn.SetRoundOptions(RoundOptions{
		Quorum:       2,
		StoreTimeout: 5 * time.Second,
		RoundTimeout: 60 * time.Second,
		MaxRetries:   1,
		Backoff:      time.Millisecond,
		BackoffCap:   10 * time.Millisecond,
		Seed:         99,
	})
	opts := soakOpts()
	opts.MaxEpochs = 2

	committed := 0
	for round := 0; round < rounds; round++ {
		// Restart every store whose session died (evicted last round). A
		// fresh conn gets a fresh deterministic fault schedule.
		for _, cs := range stores {
			select {
			case <-cs.done:
				rejoin(t, tn, ln, cs, nextInjector().Conn)
			default:
			}
		}
		if tn.NumStores() != nStores {
			t.Fatalf("round %d: fleet at %d/%d after rejoin sweep", round, tn.NumStores(), nStores)
		}
		before := tn.ModelVersion()
		rep, err := tn.FineTune(2, 64, opts)
		after := tn.ModelVersion()
		if after < before {
			t.Fatalf("round %d: version went backwards %d → %d", round, before, after)
		}
		if err != nil {
			if !strings.Contains(err.Error(), "quorum") && !strings.Contains(err.Error(), "timed out") {
				t.Fatalf("round %d: unexpected failure mode: %v", round, err)
			}
			if after != before {
				t.Fatalf("round %d: failed round moved the version %d → %d", round, before, after)
			}
			continue
		}
		committed++
		if after != before+1 {
			t.Fatalf("round %d: committed round moved version %d → %d, want +1", round, before, after)
		}
		if rep.Images+rep.ImagesLost > world.NumImages() {
			t.Fatalf("round %d: accounting overflow (%d trained + %d lost > %d)",
				round, rep.Images, rep.ImagesLost, world.NumImages())
		}
		if rep.Degraded && len(rep.FailedStores) == 0 {
			t.Fatalf("round %d: degraded without casualties: %+v", round, rep)
		}
	}
	if committed == 0 {
		t.Fatal("soak committed no rounds at all")
	}
	if tn.ModelVersion() != committed {
		t.Fatalf("final version %d, want %d committed rounds", tn.ModelVersion(), committed)
	}
	t.Logf("soak: %d/%d rounds committed, final model v%d", committed, rounds, tn.ModelVersion())
}
