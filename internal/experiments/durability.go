package experiments

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ndpipe/internal/core"
	"ndpipe/internal/dataset"
	"ndpipe/internal/faultinject"
	"ndpipe/internal/ftdmp"
	"ndpipe/internal/photostore"
	"ndpipe/internal/pipestore"
	"ndpipe/internal/placement"
	"ndpipe/internal/tuner"
)

// Durability gates (S36), enforced at full experiment size:
// rebuilding a dead store holding ≥1k photos must finish under 5 s, and a
// bounded-rate background scrub may not cost more than 5% of round wall.
const (
	rebuildWallGate   = 5 * time.Second
	scrubOverheadGate = 5.0 // percent of round wall
)

// durFleet is one replicated fleet over loopback: a tuner with replication
// enabled and nStores ring-ingested stores, optionally on disk, with one
// store's conn optionally rigged to drop mid-round.
type durFleet struct {
	tn     *tuner.Node
	stores []*pipestore.Node
	world  *dataset.World
	ring   *placement.Ring
	dirs   []string
	ln     net.Listener
}

func (f *durFleet) close() {
	f.ln.Close()
	f.tn.Close()
}

func durFleetUp(p Params, nStores, r, images, kill int, disk bool, root string) (*durFleet, error) {
	cfg := core.DefaultModelConfig()
	wcfg := dataset.DefaultConfig(p.Seed)
	wcfg.InitialImages = images
	world := dataset.NewWorld(wcfg)

	tn, err := tuner.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := tn.EnableReplication(r); err != nil {
		return nil, err
	}
	tn.SetRoundOptions(tuner.RoundOptions{
		Quorum:       2,
		StoreTimeout: 10 * time.Second,
		RoundTimeout: 2 * time.Minute,
		Seed:         p.Seed,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tn.Close()
		return nil, err
	}
	accepted := make(chan error, 1)
	go func() { accepted <- tn.AcceptStores(ln, nStores) }()

	members := make([]string, nStores)
	for i := range members {
		members[i] = fmt.Sprintf("dur-%d", i)
	}
	ring, err := placement.New(members, r)
	if err != nil {
		return nil, err
	}
	f := &durFleet{tn: tn, world: world, ring: ring, ln: ln, dirs: make([]string, nStores)}
	for i := 0; i < nStores; i++ {
		var ps *pipestore.Node
		if disk {
			f.dirs[i] = filepath.Join(root, fmt.Sprintf("photos-%d", i))
			photos, perr := photostore.OpenDir(f.dirs[i])
			if perr != nil {
				return nil, perr
			}
			ps, err = pipestore.NewWithStorage(members[i], cfg, photos)
		} else {
			ps, err = pipestore.New(members[i], cfg)
		}
		if err != nil {
			return nil, err
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
			return nil, err
		}
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		if i == kill {
			// One write is one message: the hello, one feature batch, and
			// the conn drops under the second — mid feature stream at both
			// the quick and the full size.
			inj, ierr := faultinject.New(p.Seed,
				faultinject.Rule{Kind: faultinject.Drop, Op: faultinject.OpWrite, After: 3})
			if ierr != nil {
				return nil, ierr
			}
			conn = inj.Conn(conn)
		}
		go func(ps *pipestore.Node, conn net.Conn) { _ = ps.Serve(conn) }(ps, conn)
		f.stores = append(f.stores, ps)
	}
	if err := <-accepted; err != nil {
		return nil, err
	}
	return f, nil
}

// storeMB is how many MB a full scrub of the store reads: raw frames plus
// compressed preprocessed frames.
func storeMB(ps *pipestore.Node) float64 {
	u := ps.Storage().Usage()
	return float64(u.RawBytes+u.PreprocBytes) / 1e6
}

// Durability measures the replicated photo layer (S36): scrub bandwidth,
// degraded rounds that lose zero images at R=2, at-rest bit-flip detection
// and over-the-wire repair latency, background-scrub overhead on a training
// round, and the rebuild time after losing a whole store.
func Durability(p Params) (*Table, error) {
	t := &Table{
		ID:     "durability",
		Title:  "Photo durability at R=2: scrub, repair, zero-loss rounds, rebuild (3 stores)",
		Header: []string{"scenario", "objects", "MB", "wall(ms)", "rate", "imagesLost"},
	}
	images, corruptN := 1500, 5
	if p.Quick {
		images, corruptN = 300, 2
	}
	const nStores, repl = 3, 2

	root, err := os.MkdirTemp("", "ndpipe-durability-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	opt := ftdmp.DefaultTrainOptions()
	if p.Quick {
		opt.MaxEpochs = 5
	}

	// --- Scrub bandwidth: one full checksum pass over a store's holding.
	f, err := durFleetUp(p, nStores, repl, images, -1, false, root)
	if err != nil {
		return nil, err
	}
	scrubStart := time.Now()
	checked, corrupt := f.stores[0].ScrubOnce(0)
	scrubWall := time.Since(scrubStart)
	mb := storeMB(f.stores[0])
	t.Add("scrub-full-store", checked, fmt.Sprintf("%.1f", mb),
		fmt.Sprintf("%d", scrubWall.Milliseconds()),
		fmt.Sprintf("%.0f MB/s", mb/scrubWall.Seconds()), corrupt)

	// --- Baseline round vs round with a bounded-rate background scrub.
	// Overhead is measured directly: time spent inside ScrubOnce while the
	// round runs, as a share of round wall.
	baseStart := time.Now()
	rep, err := f.tn.FineTune(2, 128, opt)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("durability baseline round: %w", err)
	}
	baseWall := time.Since(baseStart)
	t.Add("round-baseline", rep.Images, "-", fmt.Sprintf("%d", baseWall.Milliseconds()), "-", rep.ImagesLost)

	stopScrub := make(chan struct{})
	var scrubBusy time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// One bounded-rate scrubber cycling the fleet: 64 objects per 20 ms
		// tick, one store at a time (ScrubOnce passes serialize anyway).
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stopScrub:
				return
			case <-tick.C:
				t0 := time.Now()
				f.stores[i%len(f.stores)].ScrubOnce(64)
				scrubBusy += time.Since(t0)
			}
		}
	}()
	roundStart := time.Now()
	rep, err = f.tn.FineTune(2, 128, opt)
	roundWall := time.Since(roundStart)
	close(stopScrub)
	wg.Wait()
	if err != nil {
		f.close()
		return nil, fmt.Errorf("durability scrubbed round: %w", err)
	}
	overhead := float64(scrubBusy) / float64(roundWall) * 100
	t.Add("round-with-scrub", rep.Images, "-", fmt.Sprintf("%d", roundWall.Milliseconds()),
		fmt.Sprintf("%.1f%% scrub", overhead), rep.ImagesLost)
	f.close()

	// --- Degraded round at R=2: one store killed mid-extraction. Every
	// photo has a surviving replica, so the commit must lose nothing, and the
	// follow-up rebuild restores full replication from the survivors.
	f, err = durFleetUp(p, nStores, repl, images, nStores-1, false, root)
	if err != nil {
		return nil, err
	}
	degStart := time.Now()
	rep, err = f.tn.FineTune(2, 128, opt)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("durability degraded round: %w", err)
	}
	degWall := time.Since(degStart)
	if !rep.Degraded {
		f.close()
		return nil, fmt.Errorf("durability: victim survived, round not degraded")
	}
	if rep.ImagesLost != 0 {
		f.close()
		return nil, fmt.Errorf("durability: degraded round lost %d images at R=2, want 0", rep.ImagesLost)
	}
	t.Add("round-one-store-killed", rep.Images, "-", fmt.Sprintf("%d", degWall.Milliseconds()),
		"0 lost", rep.ImagesLost)

	dead := f.stores[nStores-1]
	deadObjects := dead.Storage().Len()
	deadMB := storeMB(dead)
	rebuildStart := time.Now()
	rb, err := f.tn.Reconcile(0, dead.ID)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("durability rebuild: %w", err)
	}
	rebuildWall := time.Since(rebuildStart)
	t.Add("store-loss-rebuild", rb.Refilled, fmt.Sprintf("%.1f", float64(rb.Bytes)/1e6),
		fmt.Sprintf("%d", rebuildWall.Milliseconds()),
		fmt.Sprintf("%.0f obj/s", float64(rb.Refilled)/rebuildWall.Seconds()), 0)
	f.close()

	// --- At-rest bit-flips on disk: scrub detects them, quarantines, and
	// the tuner repairs each from the healthy replica over the wire.
	f, err = durFleetUp(p, nStores, repl, images, -1, true, root)
	if err != nil {
		return nil, err
	}
	flipped := 0
	for _, img := range f.world.Images() {
		if flipped == corruptN {
			break
		}
		primary := f.ring.Replicas(img.ID)[0]
		for i, ps := range f.stores {
			if ps.ID != primary {
				continue
			}
			path := filepath.Join(f.dirs[i], "raw", fmt.Sprintf("%d", img.ID))
			b, rerr := os.ReadFile(path)
			if rerr != nil {
				f.close()
				return nil, rerr
			}
			b[len(b)-1] ^= 0x01
			if werr := os.WriteFile(path, b, 0o644); werr != nil {
				f.close()
				return nil, werr
			}
			flipped++
		}
	}
	repairStart := time.Now()
	stats, err := f.tn.Reconcile(-1)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("durability scrub-repair: %w", err)
	}
	repairWall := time.Since(repairStart)
	if stats.Refilled != flipped || stats.Failed != 0 {
		f.close()
		return nil, fmt.Errorf("durability: %d bit-flips injected, repaired=%d failed=%d",
			flipped, stats.Refilled, stats.Failed)
	}
	t.Add("bitflip-scrub-repair", stats.Refilled, "-", fmt.Sprintf("%d", repairWall.Milliseconds()),
		fmt.Sprintf("%.1f ms/repair", float64(repairWall.Milliseconds())/float64(stats.Refilled)), 0)
	f.close()

	t.Notes = append(t.Notes,
		fmt.Sprintf("placement: consistent-hash ring, R=%d over %d stores; a degraded commit re-extracts the dead store's photos from live replicas", repl, nStores),
		fmt.Sprintf("rebuild is one Reconcile pass retiring the dead store: its %d objects (%.1f MB) are refilled onto their survivor-ring replicas from the first surviving holder of each, and it leaves the ring only once every copy landed", deadObjects, deadMB),
		"bit-flips are injected into at-rest raw frames; CRC32C verification quarantines on read and repair re-verifies end to end")
	if !p.Quick {
		if deadObjects >= 1000 && rebuildWall > rebuildWallGate {
			return nil, fmt.Errorf("durability: rebuild of %d-photo store took %v, gate is %v",
				deadObjects, rebuildWall, rebuildWallGate)
		}
		if overhead > scrubOverheadGate {
			return nil, fmt.Errorf("durability: background scrub cost %.1f%% of round wall, gate is %.0f%%",
				overhead, scrubOverheadGate)
		}
	}
	return t, nil
}
