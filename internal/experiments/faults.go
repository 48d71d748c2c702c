package experiments

import (
	"fmt"
	"net"
	"time"

	"ndpipe/internal/core"
	"ndpipe/internal/dataset"
	"ndpipe/internal/faultinject"
	"ndpipe/internal/ftdmp"
	"ndpipe/internal/pipestore"
	"ndpipe/internal/tuner"
)

// Faults measures the quorum round protocol under deterministic store
// failures: a healthy 3-store baseline, a round where one store's
// connection is dropped mid-extraction (degraded commit on the surviving
// quorum), and the recovery round after the victim rejoins through the
// catch-up path. Accuracy is measured on a held-out test set after each
// scenario's round, showing that degraded rounds still learn.
func Faults(p Params) (*Table, error) {
	t := &Table{
		ID:     "faults",
		Title:  "Fault-tolerant FT-DMP rounds: degraded commit and rejoin (3 stores, quorum 2)",
		Header: []string{"scenario", "committed", "degraded", "survivors", "images", "imagesLost", "top1", "wall(ms)"},
	}
	images, testN := 900, 400
	if p.Quick {
		images, testN = 300, 150
	}
	const nStores = 3

	type scenario struct {
		name string
		kill int // store index whose conn drops mid-round (-1 = none)
	}
	for _, sc := range []scenario{{"healthy", -1}, {"one-store-killed", nStores - 1}, {"after-rejoin", nStores - 1}} {
		cfg := core.DefaultModelConfig()
		wcfg := dataset.DefaultConfig(p.Seed)
		wcfg.InitialImages = images
		world := dataset.NewWorld(wcfg)
		test := world.FreshTestSet(testN)

		tn, err := tuner.New(cfg)
		if err != nil {
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
			return nil, err
		}
		accepted := make(chan error, 1)
		go func() { accepted <- tn.AcceptStores(ln, nStores) }()
		shards := world.Shard(nStores)
		var stores []*pipestore.Node
		var victim *pipestore.Node
		for i := 0; i < nStores; i++ {
			ps, err := pipestore.New(fmt.Sprintf("exp-%d", i), cfg)
			if err != nil {
				return nil, err
			}
			if err := ps.Ingest(shards[i]); err != nil {
				return nil, err
			}
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return nil, err
			}
			if i == sc.kill {
				// One write is one message: the hello, one feature batch, and
				// the conn drops under the second — mid feature stream at both
				// the quick and the full size.
				inj, err := faultinject.New(p.Seed,
					faultinject.Rule{Kind: faultinject.Drop, Op: faultinject.OpWrite, After: 3})
				if err != nil {
					return nil, err
				}
				conn = inj.Conn(conn)
				victim = ps
			}
			go func(ps *pipestore.Node, conn net.Conn) { _ = ps.Serve(conn) }(ps, conn)
			stores = append(stores, ps)
		}
		if err := <-accepted; err != nil {
			return nil, err
		}

		opt := ftdmp.DefaultTrainOptions()
		if p.Quick {
			opt.MaxEpochs = 5
		}
		start := time.Now()
		rep, err := tn.FineTune(2, 128, opt)
		if err != nil {
			tn.Close()
			ln.Close()
			return nil, fmt.Errorf("faults %s: %w", sc.name, err)
		}
		if sc.name == "after-rejoin" && victim != nil {
			// The victim reconnects through the registration/catch-up path
			// and the next round runs at full strength.
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
				return nil, err
			}
			go func() { _ = victim.Serve(conn) }()
			if err := <-res; err != nil {
				return nil, fmt.Errorf("faults rejoin: %w", err)
			}
			start = time.Now()
			if rep, err = tn.FineTune(2, 128, opt); err != nil {
				tn.Close()
				ln.Close()
				return nil, fmt.Errorf("faults post-rejoin round: %w", err)
			}
		}
		wall := time.Since(start)
		top1, _ := tn.Evaluate(test, 5)
		t.Add(sc.name, rep.ModelVersion, rep.Degraded,
			fmt.Sprintf("%d/%d", rep.Participants-len(rep.FailedStores), rep.Participants),
			rep.Images, rep.ImagesLost, top1, fmt.Sprintf("%d", wall.Milliseconds()))
		tn.Close()
		ln.Close()
	}
	t.Notes = append(t.Notes,
		"faults are injected deterministically (the victim's conn drops at its N-th write; one write is one message)",
		"a degraded round commits on the surviving quorum; the rejoined store is caught up by one composite delta")
	return t, nil
}
