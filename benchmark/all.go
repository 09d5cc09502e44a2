package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runChild runs one workload in a child process of this binary and parses
// its result line. The child's full output is returned for printing.
func runChild(spec *workloadSpec, seed int64, seconds float64, traced, quick bool) (*result, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"--workload", spec.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // waits for the child to exit
	out := strings.TrimRight(stdout.String(), "\n")
	last := out[strings.LastIndexByte(out, '\n')+1:]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, out, fmt.Errorf("%s: %w", spec.name, runErr)
		}
		return nil, out, fmt.Errorf("%s: no result line: %w", spec.name, err)
	}
	return &res, out, nil
}

// runAll measures and then traces every workload, each run in a child
// process, and ends with a JSON summary that claims nothing: this benchmark
// defines the numbers, it does not compare two commits.
func runAll(seed int64, seconds float64, quick bool) int {
	type entry struct {
		Correct  bool               `json:"correct"`
		EndToEnd map[string]float64 `json:"end_to_end"`
		PerLayer map[string]float64 `json:"per_layer"`
	}
	summary := struct {
		Seed      int64             `json:"seed"`
		Seconds   float64           `json:"seconds"`
		Nproc     int               `json:"nproc"`
		Workloads map[string]*entry `json:"workloads"`
		Claim     any               `json:"claim"`
	}{Seed: seed, Seconds: seconds, Nproc: nproc, Workloads: map[string]*entry{}}
	status := 0
	for _, spec := range workloads {
		e := &entry{Correct: true, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
		summary.Workloads[spec.name] = e
		for _, traced := range []bool{false, true} {
			res, out, err := runChild(spec, seed, seconds, traced, quick)
			// Everything but the child's result line, which the summary repeats.
			if cut := strings.LastIndexByte(out, '\n'); cut >= 0 && res != nil {
				out = out[:cut]
			}
			fmt.Println(out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				e.Correct, status = false, 1
				continue
			}
			if !res.Correct {
				e.Correct, status = false, 1
			}
			into := e.EndToEnd
			if traced {
				into = e.PerLayer
			}
			for name, mv := range res.Metrics {
				into[name] = mv.Value
			}
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return status
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction (negative when b is better).
func worseBy(d metricDef, a, b float64) float64 {
	if d.better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// selftestRuns is how many runs, each on a seed of its own, make one of
// selfTest's two sets.
const selftestRuns = 3

// selfTest is the repeatability evidence: two interleaved sets of runs of
// the same code, every end-to-end metric of every workload compared the way
// the driver compares a change with its parent. A metric whose two medians
// disagree by more than its bound, or whose run-to-run spread (interquartile
// range over median, across seeds) exceeds it, cannot carry a claim at that
// bound.
func selfTest(seed int64, seconds float64, quick bool) int {
	status := 0
	fmt.Printf("%-16s %-22s %12s %12s %9s %8s %6s\n", "workload", "metric", "median A", "median B", "B worse", "spread", "bound")
	for _, spec := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for run := 0; run < selftestRuns; run++ {
			for set := 0; set < 2; set++ {
				// Alternate which set goes first, as paired runs do.
				set := (set + run) % 2
				res, out, err := runChild(spec, seed+int64(run), seconds, false, quick)
				if err != nil || !res.Correct {
					fmt.Println(out)
					fmt.Fprintf(os.Stderr, "benchmark: selftest: %s run %d failed: %v\n", spec.name, run, err)
					return 1
				}
				for name, mv := range res.Metrics {
					sets[set][name] = append(sets[set][name], mv.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			all := append(append([]float64(nil), a...), b...)
			spread := 0.0
			if len(all) >= 2 {
				q1, _, q3 := quartiles(all)
				spread = ratio(q3-q1, median(all))
			}
			worse := worseBy(d, median(a), median(b))
			verdict := ""
			// The bound must hold whichever set is called the parent.
			if worse > d.bound || worseBy(d, median(b), median(a)) > d.bound {
				verdict, status = "  MEDIANS DISAGREE", 1
			}
			if spread > d.bound {
				verdict, status = verdict+"  SPREAD EXCEEDS BOUND", 1
			}
			fmt.Printf("%-16s %-22s %12.4f %12.4f %+8.1f%% %7.1f%% %5.0f%%%s\n",
				spec.name, d.name, median(a), median(b), worse*100, spread*100, d.bound*100, verdict)
		}
	}
	if status != 0 {
		fmt.Println("selftest: FAILED — at least one metric does not repeat within its bound")
	} else {
		fmt.Println("selftest: ok — every end-to-end metric repeats within its bound")
	}
	return status
}
