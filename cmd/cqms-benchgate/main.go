// Command cqms-benchgate is the CI perf-regression gate: it parses `go test
// -bench` output into a machine-readable BENCH_<sha>.json and fails when any
// benchmark regressed beyond a ratio against a committed baseline — on time
// (ns/op), when the run used -benchmem on allocation count (allocs/op), and,
// for a benchmark that reports it, on bytes written per record (B/record).
//
// Usage:
//
//	go test -run '^$' -bench '...' -benchmem -count 3 . | tee bench.out
//	cqms-benchgate -in bench.out -out BENCH_$(git rev-parse --short HEAD).json \
//	    -baseline BENCH_BASELINE.json -max-ratio 2.0 -max-alloc-ratio 2.0
//
// With -count > 1 the best (minimum) value per benchmark and metric is kept,
// which filters scheduler noise on shared CI runners; the 2x default ratios
// leave headroom for machine-class differences between the baseline host and
// the runner. Allocation counts are far more stable than wall time, but the
// shared ratio keeps one mental model for both gates. Bytes per record are
// deterministic — only a change to what is written moves them — so their
// gate is a fixed 1.05x (maxBytesRatio), with no flag. Regenerate the baseline
// (-in ... -out BENCH_BASELINE.json, no -baseline) whenever a PR
// intentionally changes the performance envelope.
//
// With -slo it instead gates an open-loop load-harness report (the JSON
// written by `cqms-workload -openloop -json`) against absolute service-level
// floors — minimum achieved throughput and maximum p99 latency — so CI can
// assert "the server sustains N req/s at p99 ≤ M ms", not just relative
// microbenchmark ratios:
//
//	cqms-benchgate -slo report.json -slo-min-qps 150 -slo-max-p99-ms 250
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/workload/openloop"
)

// Result is one benchmark's best observed cost. AllocsPerOp is a pointer so
// that a measured zero (an allocation-free path, worth gating) is distinct
// from a run without -benchmem (nothing to gate).
type Result struct {
	NsPerOp     float64  `json:"nsPerOp"`
	AllocsPerOp *float64 `json:"allocsPerOp,omitempty"`
	// BytesPerRecord is a benchmark's B/record metric: the encoded size
	// per record of what it wrote (a log, a snapshot).
	BytesPerRecord *float64 `json:"bytesPerRecord,omitempty"`
	Runs           int      `json:"runs"`
}

// maxBytesRatio is the B/record gate: byte counts repeat exactly, so any
// growth past rounding is a format change.
const maxBytesRatio = 1.05

// Report is the BENCH_<sha>.json artifact.
type Report struct {
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkHTTPSubmitBatch-8   	     100	    123456 ns/op	  2048 B/op	  12 allocs/op
//
// Sub-benchmark names (slashes, key=value) pass through; the trailing
// -GOMAXPROCS suffix is stripped so runs from differently sized machines
// aggregate under one name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)

var (
	allocsField = regexp.MustCompile(`([0-9.]+) allocs/op`)
	bytesField  = regexp.MustCompile(`([0-9.]+) B/record`)
)

// keepMin parses the first submatch of re in fields and keeps it in *v when
// it is the lowest seen.
func keepMin(v **float64, re *regexp.Regexp, fields string) {
	m := re.FindStringSubmatch(fields)
	if m == nil {
		return
	}
	if x, err := strconv.ParseFloat(m[1], 64); err == nil && (*v == nil || x < **v) {
		*v = &x
	}
}

// parseBench aggregates benchmark lines, keeping the minimum ns/op per name.
func parseBench(r io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", sc.Text(), err)
		}
		res := out[name]
		res.Runs++
		if res.Runs == 1 || ns < res.NsPerOp {
			res.NsPerOp = ns
		}
		// Each metric keeps its own minimum: the fastest run is not always
		// the leanest one, and the gate wants the best observed cost per axis.
		keepMin(&res.AllocsPerOp, allocsField, m[3])
		keepMin(&res.BytesPerRecord, bytesField, m[3])
		out[name] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// regression is one gate violation on one metric (ns/op, allocs/op or
// B/record).
type regression struct {
	name              string
	metric            string
	baseline, current float64
	ratio             float64
}

// gate compares current results against the baseline on both time and
// allocation budgets. A benchmark present in the baseline but absent from the
// run fails the gate too — silently dropping a benchmark from CI must not
// pass as a perf win; the same applies to dropping -benchmem when the
// baseline carries an allocation budget. A zero-alloc baseline is a hard
// budget: any allocation at all fails it, since no ratio can express
// "regressed from nothing". A B/record baseline fails the run past
// maxBytesRatio of it, or when the run no longer reports it.
func gate(current, baseline map[string]Result, maxRatio, maxAllocRatio float64) (regressions []regression, missing []string) {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline[name]
		cur, ok := current[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if base.NsPerOp > 0 && cur.NsPerOp > maxRatio*base.NsPerOp {
			regressions = append(regressions, regression{
				name: name, metric: "ns/op", baseline: base.NsPerOp, current: cur.NsPerOp,
				ratio: cur.NsPerOp / base.NsPerOp,
			})
		}
		if base.BytesPerRecord != nil {
			switch b := *base.BytesPerRecord; {
			case cur.BytesPerRecord == nil:
				missing = append(missing, name+" B/record (baseline has a size budget)")
			case *cur.BytesPerRecord > maxBytesRatio*b:
				regressions = append(regressions, regression{
					name: name, metric: "B/record", baseline: b, current: *cur.BytesPerRecord,
					ratio: *cur.BytesPerRecord / b,
				})
			}
		}
		if base.AllocsPerOp == nil {
			continue
		}
		b := *base.AllocsPerOp
		switch {
		case cur.AllocsPerOp == nil:
			missing = append(missing, name+" allocs/op (baseline has an alloc budget; run with -benchmem)")
		case b == 0 && *cur.AllocsPerOp > 0:
			regressions = append(regressions, regression{
				name: name, metric: "allocs/op", baseline: 0, current: *cur.AllocsPerOp,
				ratio: math.Inf(1),
			})
		case b > 0 && *cur.AllocsPerOp > maxAllocRatio*b:
			regressions = append(regressions, regression{
				name: name, metric: "allocs/op", baseline: b, current: *cur.AllocsPerOp,
				ratio: *cur.AllocsPerOp / b,
			})
		}
	}
	return regressions, missing
}

// gateSLO applies absolute floors to an open-loop harness report. The report
// may be a single object or an array (a rate sweep); a sweep passes when its
// LAST entry meets the SLO, matching a sweep ordered from low to high rates.
func gateSLO(path string, slo openloop.SLO) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep openloop.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		var reps []openloop.Report
		if err2 := json.Unmarshal(data, &reps); err2 != nil || len(reps) == 0 {
			return fmt.Errorf("parsing SLO report %s: %w", path, err)
		}
		rep = reps[len(reps)-1]
	}
	fmt.Print(rep.Format())
	violations := rep.CheckSLO(slo)
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "GATE: %s\n", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("SLO gate failed: %d violation(s)", len(violations))
	}
	fmt.Printf("SLO gate passed: %.1f qps at p99 %.1fms (floors: ≥%.1f qps, ≤%.1fms)\n",
		rep.AchievedQPS, rep.Overall.P99Ms, slo.MinQPS, slo.MaxP99Ms)
	return nil
}

func run() error {
	var (
		in            = flag.String("in", "-", "benchmark output to parse (file, or - for stdin)")
		out           = flag.String("out", "", "write the parsed results as JSON to this file")
		baseline      = flag.String("baseline", "", "baseline JSON to gate against (omit to only record)")
		maxRatio      = flag.Float64("max-ratio", 2.0, "fail when ns/op exceeds ratio × baseline")
		maxAllocRatio = flag.Float64("max-alloc-ratio", 2.0, "fail when allocs/op exceeds ratio × baseline (a 0-alloc baseline fails on any allocation)")

		sloIn       = flag.String("slo", "", "open-loop harness report JSON to gate against absolute SLO floors (disables the benchmark gate)")
		sloMinQPS   = flag.Float64("slo-min-qps", 0, "fail when achieved throughput is below this floor")
		sloMaxP99   = flag.Float64("slo-max-p99-ms", 0, "fail when overall p99 latency exceeds this bound in ms")
		sloMaxFails = flag.Float64("slo-max-failure-rate", 0.01, "fail when the request failure rate exceeds this fraction")
	)
	flag.Parse()

	if *sloIn != "" {
		return gateSLO(*sloIn, openloop.SLO{
			MinQPS:         *sloMinQPS,
			MaxP99Ms:       *sloMaxP99,
			MaxFailureRate: *sloMaxFails,
		})
	}

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	results, err := parseBench(src)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results found in %s", *in)
	}
	report := Report{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Benchmarks: results}
	if *out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d benchmark results to %s\n", len(results), *out)
	}
	if *baseline == "" {
		return nil
	}
	baseData, err := os.ReadFile(*baseline)
	if err != nil {
		return err
	}
	var baseReport Report
	if err := json.Unmarshal(baseData, &baseReport); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", *baseline, err)
	}
	regressions, missing := gate(results, baseReport.Benchmarks, *maxRatio, *maxAllocRatio)
	for name, res := range results {
		allocs := ""
		if res.AllocsPerOp != nil {
			allocs = fmt.Sprintf("  %6.0f allocs/op", *res.AllocsPerOp)
		}
		if res.BytesPerRecord != nil {
			allocs += fmt.Sprintf("  %6.0f B/record", *res.BytesPerRecord)
		}
		if base, ok := baseReport.Benchmarks[name]; ok && base.NsPerOp > 0 {
			fmt.Printf("%-50s %14.0f ns/op  baseline %14.0f  ratio %.2fx%s\n",
				name, res.NsPerOp, base.NsPerOp, res.NsPerOp/base.NsPerOp, allocs)
		} else {
			fmt.Printf("%-50s %14.0f ns/op  (no baseline — add on next regen)%s\n", name, res.NsPerOp, allocs)
		}
	}
	failed := false
	for _, m := range missing {
		fmt.Fprintf(os.Stderr, "GATE: benchmark %s is in the baseline but was not run\n", m)
		failed = true
	}
	for _, r := range regressions {
		limit := *maxRatio
		switch r.metric {
		case "allocs/op":
			limit = *maxAllocRatio
		case "B/record":
			limit = maxBytesRatio
		}
		fmt.Fprintf(os.Stderr, "GATE: %s regressed %.2fx (%.0f -> %.0f %s, limit %.2fx)\n",
			r.name, r.ratio, r.baseline, r.current, r.metric, limit)
		failed = true
	}
	if failed {
		return fmt.Errorf("perf gate failed: %d regression(s), %d missing benchmark(s)", len(regressions), len(missing))
	}
	fmt.Printf("perf gate passed: %d benchmarks within %.1fx of baseline\n", len(results), *maxRatio)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cqms-benchgate:", err)
		os.Exit(1)
	}
}
