// Continuous training: the outdated-model scenario of §3.2 as a running
// service. The photo world drifts day by day; every second day NDPipe
// fine-tunes the classifier on recent uploads, while a frozen copy of the
// original model decays.
//
//	go run ./examples/continuous-training
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ndpipe/internal/dataset"
	"ndpipe/internal/ftdmp"
	"ndpipe/internal/nn"
)

func main() {
	cfg := dataset.DefaultConfig(11)
	cfg.InitialImages = 4000
	world := dataset.NewWorld(cfg)
	backbone := nn.NewFeatureExtractor(11, cfg.InputDim, 64, 32)
	rng := rand.New(rand.NewSource(12))

	feat := func(b *dataset.Batch) *dataset.Batch {
		return &dataset.Batch{X: backbone.ForwardInto(nil, b.X), Labels: b.Labels}
	}
	train := func(clf *nn.Network, b *dataset.Batch) {
		opt := ftdmp.DefaultTrainOptions()
		opt.Seed = rng.Int63()
		if _, err := ftdmp.FineTuneRuns(clf, []*dataset.Batch{b}, opt); err != nil {
			log.Fatal(err)
		}
	}

	// Day-0 model, deployed twice: one copy frozen, one continuously tuned.
	stale := nn.NewMLP("clf", []int{32, 128, cfg.MaxClasses}, rng)
	train(stale, feat(world.SampleStored(3000)))
	tuned := nn.NewMLP("clf", []int{32, 128, cfg.MaxClasses}, rng)
	if err := tuned.Restore(stale.TakeSnapshot()); err != nil {
		log.Fatal(err)
	}

	fmt.Println("day  stale-top1  tuned-top1  photos  classes")
	for day := 0; day <= 14; day++ {
		if day > 0 {
			world.AdvanceDay()
			if day%2 == 0 {
				// NDPipe: near-data fine-tuning on the recent window.
				train(tuned, feat(world.SampleRecent(3000, 5)))
			}
		}
		test := feat(world.FreshTestSet(1500))
		s1, _ := nn.Accuracy(stale, test.X, test.Labels, 5)
		t1, _ := nn.Accuracy(tuned, test.X, test.Labels, 5)
		fmt.Printf("%3d  %9.1f%%  %9.1f%%  %6d  %7d\n",
			day, 100*s1, 100*t1, world.NumImages(), world.ActiveClasses())
	}
}
