// Command bench is the repository benchmark (ISSUE 12): it composes the real
// photo system from its public constructors, drives real uploads and real
// FT-DMP cycles over loopback TCP, measures every layer from outside, and
// checks the outputs. See README.md in this directory.
//
//	bash bench/run.sh --workload cycle_gather --seed 7 --seconds 12 --trace 0
//	bash bench/run.sh                      # all four workloads, untraced
//	bash bench/run.sh --trace 1            # per-layer metrics + trace.json
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload  = flag.String("workload", "", "workload to run (default: all four)")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 20, "how long one run measures")
		trace     = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes trace.json")
		dir       = flag.String("dir", ".bench_build", "directory for store state and trace.json")
		out       = flag.String("out", "", "append each run's result line to this file (a run set for -compare)")
		compare   = flag.Bool("compare", false, "compare two run sets: -compare a.jsonl b.jsonl")
		benchJSON = flag.String("benchmark", "BENCHMARK.json", "where -compare reads bounds and directions from")
		smoke     = flag.Bool("smoke", false, "run every workload once at 1/50 size, gates on")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.jsonl b.jsonl")
			return 2
		}
		return runCompare(*benchJSON, flag.Arg(0), flag.Arg(1))
	}
	if err := quietLogs(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	specs := workloads
	if *workload != "" && *workload != "all" {
		spec, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			return 2
		}
		specs = []workloadSpec{spec}
	}
	opt := runOptions{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, MinIters: minIterations}
	if *smoke {
		opt.Seconds, opt.MinIters = 0, 1
	}
	// Each process keeps its state apart, so runs may share a checkout.
	opt.Dir = filepath.Join(*dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer os.RemoveAll(opt.Dir)
	fmt.Fprintf(os.Stderr, "bench: state under %s\n", opt.Dir)

	code := 0
	var spans []span
	for _, spec := range specs {
		if *smoke {
			spec = spec.scaled(50)
		}
		res, sp, err := runWorkload(spec, opt)
		spans = append(spans, sp...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		printResult(res)
		if !res.Correct {
			code = 1
		}
		if *out != "" {
			if err := appendLine(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
		}
	}
	if opt.Trace {
		path := filepath.Join(*dir, "trace.json")
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(spans), path)
	}
	return code
}

// printResult prints every metric by name with its unit, then — as the last
// line — the JSON object the driver reads.
func printResult(res runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d attempted=%d failed=%d correct=%v\n", res.Workload, res.Seed, res.Attempted, res.Failed, res.Correct)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Printf("%-36s %16.6g %s\n", name, v.Value, v.Unit)
	}
	for _, note := range res.notes {
		fmt.Printf("FAILED: %s\n", note)
	}
	res.Workload, res.Seed = "", 0 // omitted: the driver's line has exactly four keys
	line, _ := json.Marshal(res)
	fmt.Printf("%s\n", line)
}

func appendLine(path string, res runResult) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func runCompare(benchPath, aPath, bPath string) int {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	a, err := readRuns(aPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := readRuns(bPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if compareRuns(os.Stdout, bf, a, b) {
		return 1
	}
	return 0
}
