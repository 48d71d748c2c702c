package experiments

import (
	"math/rand"

	"ndpipe/internal/dataset"
	"ndpipe/internal/ftdmp"
	"ndpipe/internal/nn"
)

// modelVariant scales the classifier stand-in to mirror a zoo model's
// capacity: bigger paper models get wider embeddings and heads.
type modelVariant struct {
	name    string
	featDim int
	head    int
}

func table2Models() []modelVariant {
	return []modelVariant{
		{"ShuffleNetV2", 16, 48},
		{"ResNet50", 32, 128},
		{"InceptionV3", 32, 160},
		{"ResNeXt101", 48, 192},
		{"ViT", 64, 256},
	}
}

// datasetVariant scales the synthetic workload to mirror a benchmark's
// difficulty: CIFAR-100 is the easiest, ImageNet-21K much harder (more,
// noisier classes).
type datasetVariant struct {
	name    string
	classes int
	maxCls  int
	std     float64
}

func table2Datasets() []datasetVariant {
	return []datasetVariant{
		{"CIFAR100", 16, 20, 0.20},
		{"ImageNet1K", 20, 26, 0.24},
		{"ImageNet21K", 40, 48, 0.36},
	}
}

// Table2 reproduces the §6.3 accuracy comparison: Base / Outdated / NDPipe
// (fine-tuned) / Full top-1 and top-5 accuracy for every model × dataset.
func Table2(p Params) (*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "Model accuracy comparison (%)",
		Header: []string{"dataset", "model", "system", "top1", "top5"},
	}
	models := table2Models()
	datasets := table2Datasets()
	trainN, testN, epochs := 2600, 800, 35
	if p.Quick {
		models = models[1:3]
		datasets = datasets[:2]
		trainN, testN, epochs = 800, 300, 10
	}
	for _, dv := range datasets {
		for _, mv := range models {
			if err := table2Cell(t, p, dv, mv, trainN, testN, epochs); err != nil {
				return nil, err
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper: NDPipe beats Outdated everywhere (avg +1.7/+2.4 pts top-1/top-5) and trails Full by ~2.3/1.5 pts while training >300x faster")
	return t, nil
}

func table2Cell(t *Table, p Params, dv datasetVariant, mv modelVariant, trainN, testN, epochs int) error {
	cfg := dataset.DefaultConfig(p.Seed + int64(len(mv.name))*31 + int64(len(dv.name)))
	cfg.InitialClasses = dv.classes
	cfg.MaxClasses = dv.maxCls
	cfg.ClusterStd = dv.std
	if p.Quick {
		cfg.InitialImages = 1500
	}
	world := dataset.NewWorld(cfg)
	backbone := nn.NewFeatureExtractor(cfg.Seed, cfg.InputDim, 64, mv.featDim)
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	feat := func(b *dataset.Batch) *dataset.Batch {
		return &dataset.Batch{X: backbone.ForwardInto(nil, b.X), Labels: b.Labels}
	}
	train := func(clf *nn.Network, b *dataset.Batch) error {
		opt := ftdmp.DefaultTrainOptions()
		opt.MaxEpochs = epochs
		opt.Seed = rng.Int63()
		_, err := ftdmp.FineTuneRuns(clf, []*dataset.Batch{b}, opt)
		return err
	}
	newClf := func() *nn.Network {
		return nn.NewMLP("clf", []int{mv.featDim, mv.head, cfg.MaxClasses}, rng)
	}
	sample := func(n int) int {
		if w := world.NumImages(); n > w {
			return w
		}
		return n
	}

	base := newClf()
	if err := train(base, feat(world.SampleStored(sample(trainN)))); err != nil {
		return err
	}
	test0 := feat(world.FreshTestSet(testN))
	b1, b5 := nn.Accuracy(base, test0.X, test0.Labels, 5)

	for d := 0; d < 14; d++ {
		world.AdvanceDay()
	}
	test14 := feat(world.FreshTestSet(testN))
	o1, o5 := nn.Accuracy(base, test14.X, test14.Labels, 5)

	ndpipe := newClf()
	if err := ndpipe.Restore(base.TakeSnapshot()); err != nil {
		return err
	}
	if err := train(ndpipe, feat(world.SampleRecent(sample(trainN), 14))); err != nil {
		return err
	}
	n1, n5 := nn.Accuracy(ndpipe, test14.X, test14.Labels, 5)

	full := newClf()
	if err := train(full, feat(world.SampleStored(sample(trainN)))); err != nil {
		return err
	}
	f1v, f5 := nn.Accuracy(full, test14.X, test14.Labels, 5)

	add := func(sys string, a1, a5 float64) {
		t.Add(dv.name, mv.name, sys, 100*a1, 100*a5)
	}
	add("Base", b1, b5)
	add("Outdated", o1, o5)
	add("NDPipe", n1, n5)
	add("Full", f1v, f5)
	return nil
}
