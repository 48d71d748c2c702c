package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is BENCHMARK.json: the one place the end-to-end bounds live.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// readRuns loads a run set: one runResult per line, as -out appends them.
func readRuns(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// verdict is the outcome for one metric on one workload.
type verdict string

const (
	better     verdict = "better"
	within     verdict = "within bound"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares set b (the change) with set a (the parent) for one metric.
// worseBy is the share of a's median by which b's median reads worse
// (negative when it reads better).
func judge(a, b []float64, higherIsBetter bool, bound float64) (v verdict, worseBy float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worseBy = (mb - ma) / ma
		if higherIsBetter {
			worseBy = -worseBy
		}
	}
	beats := func(x, y float64) bool { // x (change) reads better than y (parent)
		if higherIsBetter {
			return x > y
		}
		return x < y
	}
	clean := true // every run of the change better than every run of the parent
	for _, x := range b {
		for _, y := range a {
			clean = clean && beats(x, y)
		}
	}
	if clean {
		return better, worseBy
	}
	// A spread wider than the bound cannot tell a regression of the bound's
	// size from noise: neither "unchanged" nor "worse" can be claimed.
	if spread(a) > bound || spread(b) > bound {
		return unresolved, worseBy
	}
	if worseBy > bound {
		return worse, worseBy
	}
	// A gain needs the medians apart by more than the parent's own spread
	// and the change ahead in nine tenths of the pairs, runs paired in order.
	q1, _, q3 := quartiles(a)
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if beats(b[i], a[i]) {
			wins++
		}
	}
	if worseBy < 0 && math.Abs(mb-ma) > q3-q1 && wins*10 >= pairs*9 {
		return better, worseBy
	}
	return within, worseBy
}

// compareRuns prints one row per end-to-end metric × workload and reports
// whether any row is worse or the change fails a larger share of operations.
func compareRuns(w io.Writer, bf benchmarkFile, a, b []runResult) (regressed bool) {
	group := func(runs []runResult) map[string][]runResult {
		g := map[string][]runResult{}
		for _, r := range runs {
			g[r.Workload] = append(g[r.Workload], r)
		}
		return g
	}
	ga, gb := group(a), group(b)
	var names []string
	for name := range ga {
		if _, ok := gb[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %8s %8s  %s\n",
		"workload", "metric", "median A", "median B", "B worse", "spread A", "bound", "verdict")
	for _, name := range names {
		for _, d := range bf.EndToEnd {
			va, vb := column(ga[name], d.Name), column(gb[name], d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, by := judge(va, vb, d.Better == "higher", d.Bound)
			regressed = regressed || v == worse
			fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g %+8.1f%% %7.1f%% %7.1f%%  %s\n",
				name, d.Name, median(va), median(vb), by*100, spread(va)*100, d.Bound*100, v)
		}
		fa, fb := failedShare(ga[name]), failedShare(gb[name])
		if fb > fa {
			regressed = true
			fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g  failed share rose: worse\n", name, "failed/attempted", fa, fb)
		}
	}
	return regressed
}

func column(runs []runResult, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func failedShare(runs []runResult) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
