// Command benchmark is the repository's benchmark: it starts the real CQMS
// stack in-process (engine → core → the /v1 handler on a loopback listener,
// driven through internal/client), offers it one of four workloads generated
// from a seed, checks the outputs, and prints every metric by name.
//
//	go run ./benchmark --workload explore_mix --seed 1 --seconds 15 --trace 0
//	go run ./benchmark                 # every workload, measured then traced
//	go run ./benchmark -selftest       # two sets of runs compared against the bounds
//
// With --workload it runs that workload once in this process and ends its
// standard output with one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-operation and per-layer
// metrics with --trace 1. Without --workload it runs each workload in a child
// process of this binary — clean set-up time, clean peak RSS, clean GC state.
// See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// metricValue and result are the contract's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in-process (default: all, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", defaultSeconds, "run length in seconds")
		trace    = flag.Int("trace", 0, "0: measure the end-to-end metrics with tracing off; 1: traced run, per-operation and per-layer metrics")
		quick    = flag.Bool("quick", false, "tenth-size smoke run")
		selftest = flag.Bool("selftest", false, "run every workload in two sets and compare each end-to-end metric against its bound")
	)
	flag.Parse()
	runtime.GOMAXPROCS(nproc)
	// The program logs through slog (a follower announces every bootstrap);
	// the benchmark's own output is the only thing a reader wants here.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	switch {
	case *selftest:
		os.Exit(selfTest(*seed, *seconds, *quick))
	case *workload == "":
		os.Exit(runAll(*seed, *seconds, *quick))
	default:
		spec := workloadByName(*workload)
		if spec == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		os.Exit(runOne(spec, *seed, *seconds, *trace != 0, *quick))
	}
}

// runOne runs one workload in this process and prints its result line.
func runOne(spec *workloadSpec, seed int64, seconds float64, traced, quick bool) int {
	if quick {
		spec = spec.scaled()
		seconds /= 10
	}
	run := measureServing
	defs := endToEnd
	switch {
	case spec.restart && traced:
		run, defs = traceRestart, tracedMetrics()
	case spec.restart:
		run = measureRestart
	case traced:
		run, defs = traceServing, tracedMetrics()
	}
	rep, err := run(spec, seed, seconds)
	if err != nil {
		// No result line: the run did not happen.
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.name, err)
		return 1
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %t  GOMAXPROCS %d  connections %d\n",
		spec.name, seed, seconds, traced, nproc, nproc)
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	res := result{Correct: len(rep.problems) == 0, Attempted: max(rep.attempted, 1), Failed: rep.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := rep.metrics[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("  %-34s %14.4f %s\n", d.name, v, d.unit)
	}
	for _, p := range rep.problems {
		fmt.Println("  OUTPUT CHECK FAILED: " + p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
