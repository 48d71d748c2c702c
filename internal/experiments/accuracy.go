package experiments

import (
	"fmt"
	"math/rand"

	"ndpipe/internal/dataset"
	"ndpipe/internal/ftdmp"
	"ndpipe/internal/nn"
)

// lab bundles a drifting world with the deployment's frozen backbone and a
// classifier factory — the shared rig for all accuracy experiments.
type lab struct {
	world    *dataset.World
	backbone *nn.Network
	cfg      dataset.Config
	featDim  int
	head     int
	rng      *rand.Rand
	epochs   int
}

func newLab(p Params) *lab {
	cfg := dataset.DefaultConfig(p.Seed)
	featDim, head, epochs := 32, 128, 40
	if p.Quick {
		cfg.InitialImages = 1200
		epochs = 12
	}
	return &lab{
		world:    dataset.NewWorld(cfg),
		backbone: nn.NewFeatureExtractor(p.Seed, cfg.InputDim, 64, featDim),
		cfg:      cfg,
		featDim:  featDim,
		head:     head,
		rng:      rand.New(rand.NewSource(p.Seed + 100)),
		epochs:   epochs,
	}
}

// feat pushes a raw batch through the frozen backbone.
func (l *lab) feat(b *dataset.Batch) *dataset.Batch {
	return &dataset.Batch{X: l.backbone.ForwardInto(nil, b.X), Labels: b.Labels, IDs: b.IDs}
}

// newClf builds an untrained classifier head.
func (l *lab) newClf() *nn.Network {
	return nn.NewMLP("clf", []int{l.featDim, l.head, l.cfg.MaxClasses}, l.rng)
}

// trainOn fine-tunes clf on the batch to the paper's stopping criterion.
func (l *lab) trainOn(clf *nn.Network, b *dataset.Batch, nrun int) error {
	opt := ftdmp.DefaultTrainOptions()
	opt.MaxEpochs = l.epochs
	opt.Seed = l.rng.Int63()
	_, err := ftdmp.FineTuneRuns(clf, ftdmp.SplitRuns(b, nrun), opt)
	return err
}

// evalToday evaluates on a fresh test set from the world's current day.
func (l *lab) evalToday(clf *nn.Network, n int) (top1, top5 float64) {
	test := l.feat(l.world.FreshTestSet(n))
	return nn.Accuracy(clf, test.X, test.Labels, 5)
}

func (l *lab) sampleSize(want int) int {
	if n := l.world.NumImages(); want > n {
		return n
	}
	return want
}

// Fig4a reproduces the outdated-model experiment (§3.2): top-1 accuracy of
// the day-0 model over two weeks vs biweekly full training vs fine-tuning.
func Fig4a(p Params) (*Table, error) {
	l := newLab(p)
	trainN, testN := l.sampleSize(3000), 2400
	if p.Quick {
		trainN, testN = l.sampleSize(800), 300
	}

	outdated := l.newClf()
	if err := l.trainOn(outdated, l.feat(l.world.SampleStored(trainN)), 1); err != nil {
		return nil, err
	}
	// Fine-tuned model: starts as a copy of the base model.
	tuned := l.newClf()
	if err := tuned.Restore(outdated.TakeSnapshot()); err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "fig4a",
		Title:  "Outdated model problem: top-1 accuracy over two weeks (%)",
		Header: []string{"day", "Outdated", "FullTraining", "FineTuning"},
	}
	addRow := func(day int, full *nn.Network) {
		o1, _ := l.evalToday(outdated, testN)
		f1, _ := l.evalToday(full, testN)
		ft1, _ := l.evalToday(tuned, testN)
		t.Add(fmt.Sprintf("+%dd", day), 100*o1, 100*f1, 100*ft1)
	}
	addRow(0, outdated)
	for day := 1; day <= 14; day++ {
		l.world.AdvanceDay()
		if day%2 != 0 {
			continue
		}
		// Full training: a fresh model on the whole (current) population.
		full := l.newClf()
		if err := l.trainOn(full, l.feat(l.world.SampleStored(trainN)), 1); err != nil {
			return nil, err
		}
		// Fine-tuning: continue the running model on recent data (a
		// several-day window, as narrow windows cause forgetting).
		if err := l.trainOn(tuned, l.feat(l.world.SampleRecent(trainN, 5)), 1); err != nil {
			return nil, err
		}
		addRow(day, full)
	}
	t.Notes = append(t.Notes,
		"paper: base 73.8% decays to 68.9% outdated; fine-tuning holds within ~2 pts of full training")
	return t, nil
}

// Fig4b reproduces the dataset-size study (§3.2): accuracy of fine-tuning
// the pretrained base model as a function of the fine-tuning dataset size.
func Fig4b(p Params) (*Table, error) {
	l := newLab(p)
	trainN, testN := l.sampleSize(3000), 1600
	sizes := []int{125, 250, 500, 1000, 2000, 4000}
	if p.Quick {
		trainN, testN = l.sampleSize(800), 300
		sizes = []int{200, 600}
	}
	base := l.newClf()
	if err := l.trainOn(base, l.feat(l.world.SampleStored(trainN)), 1); err != nil {
		return nil, err
	}
	for d := 0; d < 14; d++ {
		l.world.AdvanceDay()
	}
	t := &Table{
		ID:     "fig4b",
		Title:  "Fine-tuning accuracy vs dataset size (pretrained base, day-14 eval)",
		Header: []string{"images", "top1(%)"},
	}
	s1, _ := l.evalToday(base, testN)
	t.Add(0, 100*s1)
	for _, n := range sizes {
		clf := l.newClf()
		if err := clf.Restore(base.TakeSnapshot()); err != nil {
			return nil, err
		}
		if err := l.trainOn(clf, l.feat(l.world.SampleRecent(l.sampleSize(n), 14)), 1); err != nil {
			return nil, err
		}
		a1, _ := l.evalToday(clf, testN)
		t.Add(n, 100*a1)
	}
	t.Notes = append(t.Notes, "paper: noticeable improvement needs a large dataset (>500K images at ImageNet scale); row 0 is the stale model")
	return t, nil
}

// Table1 reproduces the outdated-label experiment (§3.3): the share of
// labels fixed by each successive biweekly model M1..M4.
func Table1(p Params) (*Table, error) {
	l := newLab(p)
	trainN, labelN := l.sampleSize(3000), 2000
	rounds := 4
	if p.Quick {
		trainN, labelN, rounds = l.sampleSize(800), 500, 2
	}

	label := func(clf *nn.Network, b *dataset.Batch) []int {
		f := l.feat(b)
		return clf.Forward(f.X).ArgmaxRows()
	}
	m0 := l.newClf()
	if err := l.trainOn(m0, l.feat(l.world.SampleStored(trainN)), 1); err != nil {
		return nil, err
	}
	fixed := l.world.SampleStored(labelN) // the 50K-image analogue
	base := label(m0, fixed)

	t := &Table{
		ID:     "table1",
		Title:  "% of labels fixed by new models",
		Header: []string{"model", "fixed(%)"},
	}
	t.Add("M0", 0.0)
	for m := 1; m <= rounds; m++ {
		for d := 0; d < 14; d++ {
			l.world.AdvanceDay()
		}
		clf := l.newClf()
		if err := l.trainOn(clf, l.feat(l.world.SampleStored(trainN)), 1); err != nil {
			return nil, err
		}
		now := label(clf, fixed)
		changed := 0
		for i := range now {
			if now[i] != base[i] {
				changed++
			}
		}
		t.Add(fmt.Sprintf("M%d", m), 100*float64(changed)/float64(len(now)))
	}
	t.Notes = append(t.Notes, "paper: 6.67% fixed by M1 rising to 8.98% by M4")
	return t, nil
}

// Fig17 reproduces the pipelined-training study (§6.3): accuracy and
// simulated training-time saving for Nrun = 1..4.
func Fig17(p Params) (*Table, error) {
	l := newLab(p)
	trainN, testN := l.sampleSize(3000), 2400
	if p.Quick {
		trainN, testN = l.sampleSize(800), 300
	}
	train := l.feat(l.world.SampleStored(trainN))

	base, err := simulateTrainingTime(1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig17",
		Title:  "Pipelined FT-DMP: accuracy and training-time saving vs Nrun (4 PipeStores, ResNet50)",
		Header: []string{"Nrun", "top1(%)", "timeSaved(%)"},
	}
	for _, nrun := range []int{1, 2, 3, 4} {
		clf := l.newClf()
		// Fixed total epoch budget: pipelining splits the same training
		// work across runs, it does not add passes.
		opt := ftdmp.DefaultTrainOptions()
		opt.MaxEpochs = l.epochs / nrun
		if opt.MaxEpochs < 4 {
			opt.MaxEpochs = 4
		}
		opt.Seed = 99
		if _, err := ftdmp.FineTuneRuns(clf, ftdmp.SplitRuns(train, nrun), opt); err != nil {
			return nil, err
		}
		a1, _ := l.evalToday(clf, testN)
		tt, err := simulateTrainingTime(nrun)
		if err != nil {
			return nil, err
		}
		t.Add(nrun, 100*a1, 100*(1-tt/base))
	}
	t.Notes = append(t.Notes,
		"paper: 71.61/71.55/71.52% for Nrun 1–3 with up to 32% time saved; accuracy collapses at Nrun=4 (70.36%)")
	return t, nil
}
