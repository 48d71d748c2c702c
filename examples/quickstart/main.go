// Quickstart: the smallest end-to-end use of the ndpipe public API.
//
// It builds a synthetic photo world, stands up an in-process NDPipe
// deployment (1 Tuner + 2 PipeStores over loopback TCP), fine-tunes the
// classifier with pipelined FT-DMP, and relabels the stored photos with
// near-data offline inference.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net"

	"ndpipe/internal/core"
	"ndpipe/internal/dataset"
	"ndpipe/internal/ftdmp"
	"ndpipe/internal/pipestore"
	"ndpipe/internal/tuner"
)

func main() {
	// 1. A photo population: 3,000 synthetic photos in 20 categories.
	wcfg := dataset.DefaultConfig(7)
	wcfg.InitialImages = 3000
	world := dataset.NewWorld(wcfg)

	// 2. The deployment: one Tuner, two PipeStores, loopback TCP.
	cfg := core.DefaultModelConfig()
	tn, err := tuner.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- tn.AcceptStores(ln, 2) }()

	for i, shard := range world.Shard(2) {
		ps, err := pipestore.New(fmt.Sprintf("ps-%d", i), cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := ps.Ingest(shard); err != nil {
			log.Fatal(err)
		}
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		go func() { _ = ps.Serve(conn) }()
	}
	if err := <-done; err != nil {
		log.Fatal(err)
	}

	// 3. Fine-tune with pipelined FT-DMP (Nrun = 2).
	rep, err := tn.FineTune(2, 128, ftdmp.DefaultTrainOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fine-tuned on %d photos over %d pipelined runs (%d epochs)\n",
		rep.Images, rep.Runs, rep.Epochs)
	fmt.Printf("feature traffic: %.3f KB/photo; model delta %.1fx smaller than the full model\n",
		float64(rep.FeatureBytes)/float64(rep.Images)/1e3, rep.TrafficReduction())

	// 4. Evaluate and relabel.
	test := world.FreshTestSet(800)
	top1, top5 := tn.Evaluate(test, 5)
	fmt.Printf("accuracy: top-1 %.1f%%  top-5 %.1f%%\n", 100*top1, 100*top5)

	st, err := tn.OfflineInference(128)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline inference relabeled %d photos; label DB holds %d entries\n",
		st.Total, tn.DB().Len())
}
