package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadSpec freezes one workload: everything except the seed.
//
// Every workload runs the same unit of work, one service lifetime:
// build the rig and ingest the stored population (timed: setup_s); run
// continuous-training cycles over it (FineTune → deploy to serving →
// OfflineInference); serve uploads through the gateway, first saturated and
// closed-loop, then paced and open-loop; tear down. The unit is repeated on a
// fresh rig until --seconds have passed, at least minIterations times, and
// every metric is a median over the repeats. What differs between workloads
// is which phase is sized to dominate and which layer it leans on.
type workloadSpec struct {
	Name string
	Why  string

	Stores    int
	StateDirs bool // tuner and stores keep state dirs: WAL fsync and model persist on the commit path
	PerStore  int  // photos each store holds before the run

	Nrun, Batch  int // FT-DMP pipeline depth and extraction batch
	EpochsPerRun int // pinned: the convergence rule cannot vary the work
	WarmCycles   int // discarded
	Cycles       int // measured, per iteration

	Catalogue int     // 0: every upload has distinct content
	ZipfS     float64 // skew of the content draw when Catalogue > 0
	Callers   int     // parked caller goroutines, both passes
	Warm      int     // warm-up uploads, discarded
	Saturated int     // closed-loop uploads, split in two half-passes
	Window    int     // completions per throughput sample
	PacedRate float64 // open-loop uploads/s
	PacedN    int     // open-loop uploads

	MinTop1  float64 // correctness gate after the iteration's last cycle
	Headline string  // the metric trace.overhead_pct is taken on
}

const minIterations = 3

var workloads = []workloadSpec{
	{
		Name:   "upload_unique",
		Why:    "online path, all-distinct content: working set >> the 4096-entry cache, so backbone, deflate, put and labeldb do the work; 2 memory stores, 36k uploads/iteration, paced pass at 20k/s; cycles are light",
		Stores: 2, PerStore: 1000, Nrun: 3, Batch: 128, EpochsPerRun: 5, WarmCycles: 1, Cycles: 2,
		Callers: 32, Warm: 4000, Saturated: 32000, Window: 2000, PacedRate: 20000, PacedN: 16000,
		MinTop1: 40, Headline: "upload_ups",
	},
	{
		Name:   "upload_zipf",
		Why:    "same rig and rates, content Zipf(1.2) over a 2000-item catalogue under fresh IDs: fits the cache, so the cache/memo path works and the backbone idles; a cache change shows here, not on upload_unique",
		Stores: 2, PerStore: 1000, Nrun: 3, Batch: 128, EpochsPerRun: 5, WarmCycles: 1, Cycles: 2,
		Catalogue: 2000, ZipfS: 1.2,
		Callers: 32, Warm: 8000, Saturated: 96000, Window: 6000, PacedRate: 20000, PacedN: 16000,
		MinTop1: 40, Headline: "upload_ups",
	},
	{
		Name:   "cycle_gather",
		Why:    "training cycle with the largest store+wire share the system allows: 2 stores x8000 photos, state dirs (WAL fsync, model persist), FineTune(3,128) pinned at 1 epoch/run, then OfflineInference",
		Stores: 2, StateDirs: true, PerStore: 8000, Nrun: 3, Batch: 128, EpochsPerRun: 1, WarmCycles: 1, Cycles: 3,
		Callers: 32, Warm: 2000, Saturated: 8000, Window: 1000, PacedRate: 20000, PacedN: 4000,
		MinTop1: 75, Headline: "finetune_s",
	},
	{
		Name:   "cycle_train",
		Why:    "same rig and code path but the Tuner's SGD dominates: 2 stores x1000 photos, 15 epochs/run pinned (45/round); a wire or store change shows on cycle_gather and not here, a tensor/nn change the reverse",
		Stores: 2, StateDirs: true, PerStore: 1000, Nrun: 3, Batch: 128, EpochsPerRun: 15, WarmCycles: 1, Cycles: 3,
		Callers: 32, Warm: 2000, Saturated: 8000, Window: 1000, PacedRate: 20000, PacedN: 4000,
		MinTop1: 70, Headline: "finetune_s",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scaled shrinks a workload's counts by f for the smoke pass; the shape
// (backing, epochs, skew, rates) stays.
func (w workloadSpec) scaled(f int) workloadSpec {
	div := func(n, floor int) int { return max(n/f, floor) }
	w.PerStore = div(w.PerStore, 3*w.Batch/2)
	w.Warm = div(w.Warm, 16)
	w.Window = div(w.Window, 8)
	w.Saturated = div(w.Saturated, 2*w.Window)
	w.PacedN = div(w.PacedN, 40)
	w.Cycles = min(w.Cycles, 2)
	w.EpochsPerRun = min(w.EpochsPerRun, 4)
	w.MinTop1 = 0 // too few photos to learn from
	return w
}

func (w workloadSpec) uploadsPerIteration() int { return w.Warm + w.Saturated + w.PacedN }

// runOptions is what the command line adds to a spec.
type runOptions struct {
	Seed     int64
	Seconds  float64
	Trace    bool
	Dir      string // state and trace.json go under here
	MinIters int
}

// runResult is one run of one workload: the line the driver reads.
type runResult struct {
	Workload  string    `json:"workload,omitempty"`
	Seed      int64     `json:"seed,omitempty"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`

	notes []string // why it is not correct
}

// repeats holds the timings of a fixed sequence of work units (the cycles of
// an iteration, the windows of a saturated pass) over the run's iterations:
// plain[p] and traced[p] are the wall times, in seconds, unit p took in the
// iterations where it ran untraced and traced.
//
// Iterations are exact repeats — same inputs, fresh rig — and interference
// from the shared machine only ever adds time, so a unit's undisturbed cost is
// estimated by its fastest repeat. best sums those over every unit: each piece
// of the work is counted once, at the speed the program reached when left
// alone. (On the builder's box the median of a run moved 25 % between a quiet
// and a noisy minute while the fastest repeats moved 5 %; see README.)
type repeats struct {
	plain, traced [][]float64
}

func (u *repeats) add(pos int, seconds float64, traced bool) {
	if seconds <= 0 {
		return
	}
	col := &u.plain
	if traced {
		col = &u.traced
	}
	for len(*col) <= pos {
		*col = append(*col, nil)
	}
	(*col)[pos] = append((*col)[pos], seconds)
}

// best returns the summed fastest repeat of every unit and the unit count.
func best(cols [][]float64) (sum float64, units int) {
	for _, col := range cols {
		if len(col) > 0 {
			sum += slices.Min(col)
			units++
		}
	}
	return sum, units
}

// overheadPct is the share by which the traced repeats' best times exceed
// the untraced ones', over the units that have both.
func (u *repeats) overheadPct() float64 {
	var plain, traced float64
	for p := range min(len(u.plain), len(u.traced)) {
		if len(u.plain[p]) > 0 && len(u.traced[p]) > 0 {
			plain += slices.Min(u.plain[p])
			traced += slices.Min(u.traced[p])
		}
	}
	if plain == 0 {
		return 0
	}
	return (traced - plain) / plain * 100
}

// samples collects what the iterations of one run measured.
type samples struct {
	setup, cpu, cpuUser, cpuSys  []float64
	windows, finetune, relabel   repeats
	latencyMs, lateMs            []float64
	roundBytes, reads, writes    []float64
	top1, epochs                 []float64
	gather, trainTail, commit    []float64
	relabelApply, accept         []float64
	featureBPI, deltaBPS, lblBPI []float64
	deltaBytes, ingestUs         []float64
	batchMean, hitRatio, resHit  []float64
	evictions, shed              []float64
	allocsPerOp, allocBytesPerOp []float64
	gcCycles, gcPauseMs          []float64
}

// run is one workload run in progress.
type run struct {
	spec workloadSpec
	opt  runOptions
	in   inputs
	tl   *timeline
	tr   *tracer
	s    samples
	res  runResult
	prb  metricSet // micro-probe results (traced run)
}

func (r *run) check(ok bool, format string, args ...any) {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		if len(r.res.notes) < 20 {
			r.res.notes = append(r.res.notes, fmt.Sprintf(format, args...))
		}
	}
}

// runWorkload executes spec under opt and returns the metrics the contract
// asks for: every end-to-end metric untraced, every per-layer metric traced.
func runWorkload(spec workloadSpec, opt runOptions) (runResult, []span, error) {
	r := &run{spec: spec, opt: opt, prb: metricSet{}}
	r.res = runResult{Workload: spec.Name, Seed: opt.Seed, Metrics: metricSet{}}
	r.in = makeInputs(opt.Seed, spec.Stores, spec.PerStore, spec.uploadsPerIteration(), spec.Catalogue, spec.ZipfS)
	r.tl = newTimeline()
	r.tr = newTracer(spec.Name, r.tl.epoch)

	// Whole iterations until --seconds have passed: the run stops with the
	// iteration expected to reach the mark, not one later.
	begin := time.Now()
	iters := 0
	for last := false; !last; iters++ {
		elapsed := time.Since(begin).Seconds()
		perIter := 0.0
		if iters > 0 {
			perIter = elapsed / float64(iters)
		}
		last = iters+1 >= opt.MinIters && elapsed+perIter >= opt.Seconds
		if err := r.iteration(iters, last); err != nil {
			return r.res, nil, err
		}
		runtime.GC() // the next rig starts from a collected heap, as a fresh process would
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d iterations in %.1f s\n", spec.Name, iters, time.Since(begin).Seconds())
	if opt.Trace {
		r.tr.on.Store(true)
		if err := layerProbes(r.prb, r.tr, r.in, opt.Dir); err != nil {
			return r.res, nil, err
		}
	}
	r.finish()
	return r.res, r.tr.take(), nil
}

// iteration is one service lifetime on a fresh rig.
func (r *run) iteration(idx int, last bool) error {
	spec := r.spec
	r.tl.on.Store(false)
	r.tr.on.Store(false)
	cpu0 := cpuTimes()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	root := 0
	if r.opt.Trace {
		r.tr.on.Store(true)
		root = r.tr.start("iteration", 0)
	}
	sp := r.tr.start("setup", root)
	rs := rigSpec{stores: spec.Stores}
	if spec.StateDirs {
		rs.stateDir = filepath.Join(r.opt.Dir, fmt.Sprintf("rig-%d", idx))
	}
	rg, err := newRig(rs, r.in.shards, r.tl)
	r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: building rig: %w", spec.Name, err)
	}
	defer rg.close() // idempotent; the explicit close below is the timed one
	r.s.setup = append(r.s.setup, rg.setup.Seconds())
	r.s.accept = append(r.s.accept, rg.accept.Seconds())
	r.s.ingestUs = append(r.s.ingestUs, rg.ingest.Seconds()*1e6/float64(spec.PerStore))

	if err := r.cycles(rg, idx, root); err != nil {
		return err
	}
	if err := r.uploads(rg, idx, root); err != nil {
		return err
	}

	held := spec.Stores*spec.PerStore + spec.uploadsPerIteration()
	r.check(rg.photosHeld() == held, "stores hold %d photos, want %d", rg.photosHeld(), held)
	total, inRange := rg.labelCounts()
	r.check(total == held, "label index has %d entries, want %d", total, held)
	r.check(inRange == total, "%d of %d labels outside [0,%d)", total-inRange, total, numClasses())

	if r.opt.Trace && last {
		r.tr.on.Store(true)
		sp := r.tr.start("probe.store", root)
		msgs, err := rg.storeProbes(r.prb, spec.Nrun, spec.Batch)
		if err == nil {
			err = wireProbes(r.prb, msgs)
		}
		r.tr.end(sp)
		if err != nil {
			return err
		}
	}
	r.tr.end(root)
	rg.close()

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	cpu1 := cpuTimes()
	r.s.cpu = append(r.s.cpu, cpu1.total()-cpu0.total())
	r.s.cpuUser = append(r.s.cpuUser, cpu1.user-cpu0.user)
	r.s.cpuSys = append(r.s.cpuSys, cpu1.sys-cpu0.sys)
	r.s.gcCycles = append(r.s.gcCycles, float64(ms1.NumGC-ms0.NumGC))
	r.s.gcPauseMs = append(r.s.gcPauseMs, float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	return nil
}

// cycles runs the iteration's continuous-training cycles. In a traced run
// the socket timeline is on for every other cycle (the parity flips per
// iteration), so traced and untraced cycles of the same rig sit side by side.
func (r *run) cycles(rg *rig, idx, root int) error {
	spec := r.spec
	photos := spec.Stores * spec.PerStore
	for c := 0; c < spec.WarmCycles+spec.Cycles; c++ {
		measured := c >= spec.WarmCycles
		traced := r.opt.Trace && (idx+c)%2 == 0
		r.tl.on.Store(traced)
		r.tr.on.Store(traced)
		var ms0 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&ms0)
		}
		cyc := r.tr.start("cycle", root)

		before := totalsOf(rg.conns)
		prevVersion := rg.modelVersion()
		ft := r.tr.start("tuner.FineTune", cyc)
		t0, at0 := time.Now(), r.tl.now()
		rep, err := rg.fineTune(spec.Nrun, spec.Batch, spec.EpochsPerRun)
		wall, at1 := time.Since(t0), r.tl.now()
		r.tr.end(ft)
		wireTotals := totalsOf(rg.conns).sub(before)
		r.res.Attempted++
		if err != nil {
			r.res.Failed++
			return fmt.Errorf("%s: fine-tune cycle %d: %w", spec.Name, c, err)
		}
		r.check(rep.Version == prevVersion+1, "cycle %d: model version %d after %d", c, rep.Version, prevVersion)
		r.check(!rep.Degraded && rep.ImagesLost == 0, "cycle %d: degraded=%v images lost=%d", c, rep.Degraded, rep.ImagesLost)
		r.check(rep.Epochs == spec.Nrun*spec.EpochsPerRun, "cycle %d: %d epochs, pinned at %d", c, rep.Epochs, spec.Nrun*spec.EpochsPerRun)
		r.check(rep.Images == photos, "cycle %d: trained on %d photos, stores hold %d", c, rep.Images, photos)

		ds := r.tr.start("inferserver.ApplyDelta", cyc)
		err = rg.deployToServing(rep)
		r.tr.end(ds)
		if err != nil {
			return fmt.Errorf("%s: deploying delta: %w", spec.Name, err)
		}

		oi := r.tr.start("tuner.OfflineInference", cyc)
		t1, rt0 := time.Now(), r.tl.now()
		relabelled, err := rg.relabel(spec.Batch)
		relabelWall, rt1 := time.Since(t1), r.tl.now()
		r.tr.end(oi)
		r.res.Attempted++
		if err != nil {
			r.res.Failed++
			return fmt.Errorf("%s: relabel cycle %d: %w", spec.Name, c, err)
		}
		r.check(relabelled == photos, "cycle %d: relabelled %d photos, stores hold %d", c, relabelled, photos)
		r.tr.end(cyc)
		if !measured {
			continue
		}

		r.s.finetune.add(c-spec.WarmCycles, wall.Seconds(), traced)
		r.s.relabel.add(c-spec.WarmCycles, relabelWall.Seconds(), false)
		if traced {
			if spec.Headline == "finetune_s" { // op = one photo through one cycle
				var ms1 runtime.MemStats
				runtime.ReadMemStats(&ms1)
				r.s.allocsPerOp = append(r.s.allocsPerOp, float64(ms1.Mallocs-ms0.Mallocs)/float64(photos))
				r.s.allocBytesPerOp = append(r.s.allocBytesPerOp, float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(photos))
			}
			r.timelineSamples(ft, at0, at1, rt0, rt1, photos)
		}
		r.s.roundBytes = append(r.s.roundBytes, float64(wireTotals.bytes()))
		r.s.reads = append(r.s.reads, float64(wireTotals.Reads))
		r.s.writes = append(r.s.writes, float64(wireTotals.Writes))
		r.s.epochs = append(r.s.epochs, float64(rep.Epochs))
		r.s.deltaBytes = append(r.s.deltaBytes, float64(len(rep.DeltaBlob)))
	}
	r.tl.on.Store(false)
	r.tr.on.Store(false)
	top1 := rg.top1Pct(r.in.test)
	r.s.top1 = append(r.s.top1, top1)
	r.check(top1 >= spec.MinTop1, "top-1 %.2f %% below the %.0f %% gate", top1, spec.MinTop1)
	// The same seed must give the same model: every iteration trains a fresh
	// rig on the same inputs for the same pinned epochs.
	r.check(top1 == r.s.top1[0], "top-1 %.4f differs from the first iteration's %.4f on the same inputs", top1, r.s.top1[0])
	return nil
}

// timelineSamples splits one traced cycle at the socket timeline's direction
// changes and records the segments, as samples and as spans under the
// FineTune span.
func (r *run) timelineSamples(ftSpan int, at0, at1, rt0, rt1 time.Duration, photos int) {
	seg := segmentRound(r.tl.window(at0, at1), r.spec.Stores)
	r.check(seg.OK, "socket timeline of a fine-tune round does not split into request/features/delta/ack")
	if seg.OK {
		r.s.gather = append(r.s.gather, (seg.GatherEnd - at0).Seconds())
		r.s.trainTail = append(r.s.trainTail, (seg.FirstDelta - seg.GatherEnd).Seconds())
		r.s.commit = append(r.s.commit, (at1 - seg.FirstDelta).Seconds())
		r.s.featureBPI = append(r.s.featureBPI, float64(seg.FeatureBytes)/float64(photos))
		r.s.deltaBPS = append(r.s.deltaBPS, float64(seg.DeltaBytes))
		r.tr.add("gather", ftSpan, at0, seg.GatherEnd)
		r.tr.add("train_tail", ftSpan, seg.GatherEnd, seg.FirstDelta)
		r.tr.add("commit", ftSpan, seg.FirstDelta, at1)
	}
	rl := segmentRelabel(r.tl.window(rt0, rt1), r.spec.Stores)
	r.check(rl.OK, "socket timeline of a relabel pass shows a store that sent nothing")
	if rl.OK {
		r.s.relabelApply = append(r.s.relabelApply, (rt1 - rl.LastLabel).Seconds())
		r.s.lblBPI = append(r.s.lblBPI, float64(rl.LabelBytes)/float64(photos))
	}
}

// uploads runs the iteration's online phase: warm-up, the saturated
// closed-loop pass in two halves (in a traced run one half is traced, which
// half flips per iteration), then the paced open-loop pass.
func (r *run) uploads(rg *rig, idx, root int) error {
	spec := r.spec
	classes := numClasses()
	do := func(off int, parent int) func(i int) error {
		return func(i int) error {
			sp := 0
			if i%100 == 0 {
				sp = r.tr.start("upload", parent)
			}
			label, err := rg.upload(r.in.uploads[off+i])
			r.tr.end(sp)
			if err == nil && (label < 0 || label >= classes) {
				err = fmt.Errorf("label %d outside [0,%d)", label, classes)
			}
			return err
		}
	}
	count := func(done, failed int) {
		r.res.Attempted += done
		r.res.Failed += failed
	}
	r.tl.on.Store(false)
	r.tr.on.Store(false)
	g0 := rg.gatewayStats()
	warm := closedLoop(spec.Warm, spec.Callers, 0, do(0, 0))
	count(warm.Done, warm.Failed)

	g1 := rg.gatewayStats()
	half := spec.Saturated / 2
	perHalf := half / spec.Window
	for h := 0; h < 2; h++ {
		traced := r.opt.Trace && (idx+h)%2 == 0
		r.tr.on.Store(traced)
		var ms0, ms1 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&ms0)
		}
		sp := r.tr.start("uploads.saturated", root)
		pass := closedLoop(half, spec.Callers, spec.Window, do(spec.Warm+h*half, sp))
		r.tr.end(sp)
		count(pass.Done, pass.Failed)
		for k, seconds := range pass.Windows {
			r.s.windows.add(h*perHalf+k, seconds, traced)
		}
		if traced {
			runtime.ReadMemStats(&ms1)
			if spec.Headline == "upload_ups" { // op = one upload
				r.s.allocsPerOp = append(r.s.allocsPerOp, float64(ms1.Mallocs-ms0.Mallocs)/float64(half))
				r.s.allocBytesPerOp = append(r.s.allocBytesPerOp, float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(half))
			}
		}
	}
	gs := rg.gatewayStats().sub(g1)
	if gs.Batches > 0 && gs.Hits+gs.Misses > 0 {
		r.s.batchMean = append(r.s.batchMean, float64(gs.Completed)/float64(gs.Batches))
		r.s.hitRatio = append(r.s.hitRatio, float64(gs.Hits)/float64(gs.Hits+gs.Misses))
		r.s.resHit = append(r.s.resHit, float64(gs.ResultHits)/float64(gs.Hits+gs.Misses))
		r.s.evictions = append(r.s.evictions, float64(gs.Evictions))
	}

	r.tr.on.Store(r.opt.Trace)
	sp := r.tr.start("uploads.paced", root)
	paced := openLoop(spec.PacedRate, spec.PacedN, spec.Callers, time.Sleep, do(spec.Warm+spec.Saturated, sp))
	r.tr.end(sp)
	r.tr.on.Store(false)
	count(paced.Sent, paced.Failed)
	r.s.latencyMs = append(r.s.latencyMs, paced.LatencyMs...)
	r.s.lateMs = append(r.s.lateMs, paced.LateMs...)

	all := rg.gatewayStats().sub(g0)
	r.s.shed = append(r.s.shed, float64(all.Shed))
	r.check(all.Admitted == all.Completed, "gateway admitted %d uploads, completed %d", all.Admitted, all.Completed)
	r.check(all.Shed == 0 && all.Errors == 0, "gateway shed %d uploads, failed %d", all.Shed, all.Errors)
	r.check(int(all.Completed) == spec.uploadsPerIteration(), "gateway completed %d uploads, sent %d", all.Completed, spec.uploadsPerIteration())
	return nil
}

// finish turns the samples into the run's metrics.
func (r *run) finish() {
	s, m := &r.s, r.res.Metrics
	if !r.opt.Trace {
		lat := summarize(s.latencyMs)
		windowSec, windows := best(s.windows.plain)
		cycleSec, cycles := best(s.finetune.plain)
		relabelSec, relabels := best(s.relabel.plain)
		photos := r.spec.Stores * r.spec.PerStore
		m.set("setup_s", median(s.setup), "s")
		m.set("upload_ups", float64(windows*r.spec.Window)/windowSec, "1/s")
		m.set("upload_p50_ms", lat.P50, "ms")
		m.set("finetune_s", cycleSec/float64(cycles), "s")
		m.set("relabel_ips", float64(relabels*photos)/relabelSec, "1/s")
		m.set("round_wire_bytes", median(s.roundBytes), "B")
		m.set("top1_pct", s.top1[0], "%")
		m.set("cpu_s", slices.Min(s.cpu), "s") // the least disturbed iteration, as for the timings above
		m.set("peak_rss_mb", peakRSSMB(), "MB")
		fmt.Fprintf(os.Stderr, "bench: %s: paced pass n=%d p50=%.3f ms p%g=%.3f ms; generator p99 lateness %.3f ms\n",
			r.spec.Name, lat.N, lat.P50, lat.TailP, lat.Tail, percentile(sortedCopy(s.lateMs), 99))
		for name, v := range m {
			r.check(v.Value > 0 && !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0), "%s = %v is not a positive number", name, v.Value)
		}
		r.res.Correct = r.res.Failed == 0
		return
	}

	lat := summarize(s.latencyMs)
	m.set("serve.batch_mean", median(s.batchMean), "count")
	m.set("serve.cache_hit_ratio", median(s.hitRatio), "ratio")
	m.set("serve.result_hit_ratio", median(s.resHit), "ratio")
	m.set("serve.cache_evictions", median(s.evictions), "count")
	m.set("serve.shed", median(s.shed), "count")
	m.set("serve.paced_p99_ms", lat.P99, "ms")
	m.set("serve.paced_late_ms", percentile(sortedCopy(s.lateMs), 99), "ms")
	m.set("pipestore.ingest_us", median(s.ingestUs), "us")
	m.set("wire.feature_bytes_per_image", median(s.featureBPI), "B")
	m.set("wire.delta_bytes_per_store", median(s.deltaBPS), "B")
	m.set("wire.relabel_bytes_per_image", median(s.lblBPI), "B")
	m.set("wire.writes_per_round", median(s.writes), "count")
	m.set("wire.reads_per_round", median(s.reads), "count")
	m.set("tuner.gather_s", median(s.gather), "s")
	m.set("tuner.train_tail_s", median(s.trainTail), "s")
	m.set("tuner.commit_s", median(s.commit), "s")
	m.set("tuner.relabel_apply_s", median(s.relabelApply), "s")
	m.set("tuner.accept_s", median(s.accept), "s")
	m.set("tuner.epochs", median(s.epochs), "count")
	m.set("delta.bytes", median(s.deltaBytes), "B")
	m.set("proc.allocs_per_op", median(s.allocsPerOp), "count")
	m.set("proc.alloc_bytes_per_op", median(s.allocBytesPerOp), "B")
	m.set("proc.gc_cycles", median(s.gcCycles), "count")
	m.set("proc.gc_pause_ms", median(s.gcPauseMs), "ms")
	m.set("proc.cpu_user_s", median(s.cpuUser), "s")
	m.set("proc.cpu_sys_s", median(s.cpuSys), "s")
	// Tracing overhead on the workload's headline metric. Which units are
	// traced flips per iteration, so every unit has repeats of both kinds.
	overhead := s.finetune.overheadPct()
	if r.spec.Headline == "upload_ups" {
		overhead = s.windows.overheadPct()
	}
	m.set("trace.overhead_pct", overhead, "%")
	for name, v := range r.prb {
		m[name] = v
	}
	// Same seed, same rig, same pinned epochs: the wire carries the same
	// features every round. Span payloads ride the same socket and their
	// varint-encoded timings differ by a few bytes, hence the tolerance.
	if len(s.featureBPI) > 1 {
		lo, hi := slices.Min(s.featureBPI), slices.Max(s.featureBPI)
		r.check(hi-lo <= 0.005*hi, "wire.feature_bytes_per_image varies %.1f..%.1f on identical rounds", lo, hi)
	}
	for _, e := range s.epochs {
		r.check(e == s.epochs[0], "tuner.epochs varies on identical rounds: %v vs %v", e, s.epochs[0])
	}
	for _, d := range perLayer {
		_, ok := m[d.Name]
		r.check(ok, "per-layer metric %s was not measured", d.Name)
	}
	r.res.Correct = r.res.Failed == 0
}

// cpuSample is the process's CPU time so far.
type cpuSample struct{ user, sys float64 }

func (c cpuSample) total() float64 { return c.user + c.sys }

func cpuTimes() cpuSample {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuSample{}
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return cpuSample{user: sec(ru.Utime), sys: sec(ru.Stime)}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
