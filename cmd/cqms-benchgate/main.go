// Command cqms-benchgate is the CI perf-regression gate. It compares two
// `go test -bench` outputs of one benchmark list run on one machine: base
// (the merge-base) and head (the change). bench-pairs.sh, next to this file,
// writes them, alternating the two sides, so the k-th result of a benchmark
// on one side ran next to its k-th result on the other; the gate pairs them
// by that occurrence:
//
//	cmd/cqms-benchgate/bench-pairs.sh base-tree head-tree out
//	cqms-benchgate -base out/base.out -head out/head.out
//
// A benchmark fails on time when the head was slower in at least minSlower
// of its pairs and the head's median ns/op exceeds the base's by more than
// timeBound. Allocation counts (allocs/op) and bytes written per
// record (B/record) do not depend on the host, so they are compared with the
// base directly: the head's median may not exceed the most the base showed,
// and a zero-alloc base fails on any allocation. A benchmark on one side only
// (added, removed, renamed because its body changed, or failing on the base)
// is listed with no time verdict; one on the base only is also warned of on
// stderr, since a deleted, skipped or misnamed benchmark escapes the gate
// that way. A benchmark that did not run exactly pairs times on both sides
// is refused.
//
// The open-loop load harness is not gated here: `cqms-workload -openloop`
// judges its own runs and exits non-zero when no rate was sustainable.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

const (
	// pairs is how many times bench-pairs.sh runs every benchmark per side,
	// and minSlower how many of those pairs the head must lose before its
	// time is judged. Were an unchanged benchmark's pairs coin flips, 9 of
	// 10 alone would fail it in 1 run of 93.
	pairs     = 10
	minSlower = 9
	// timeBound is how far the head's median ns/op may then exceed the
	// base's. It comes from unchanged pairs, one commit built as both
	// sides, on a shared 2-vCPU host. Over the whole list, one run of 6
	// pairs and one of 10 each left benchmarks slower in at least five
	// sixths of their pairs, with medians up to 23.5 % and 48.8 % past the
	// base's (the heap-heavy SearchAtSize and LiveApply, whose runs spread
	// most); 50 % is the round bound both runs pass.
	timeBound = 0.50
)

// Units the gate reads from a result line; every other metric is ignored.
const (
	nsPerOp        = "ns/op"
	allocsPerOp    = "allocs/op"
	bytesPerRecord = "B/record"
)

// series holds one benchmark's values per unit, in the order its result
// lines appeared.
type series map[string][]float64

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkHTTPSubmitBatch-8   	     100	    123456 ns/op	  2048 B/op	  12 allocs/op
//
// Sub-benchmark names (slashes, key=value) pass through; the trailing
// -GOMAXPROCS suffix is stripped.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+ ns/op.*)$`)

// parseBench reads every result line into its benchmark's series.
func parseBench(r io.Reader) (map[string]series, error) {
	out := make(map[string]series)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		s := out[name]
		if s == nil {
			s = series{}
			out[name] = s
		}
		f := strings.Fields(m[2])
		for i := 0; i+1 < len(f); i += 2 {
			unit := f[i+1]
			if unit != nsPerOp && unit != allocsPerOp && unit != bytesPerRecord {
				continue
			}
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %w", sc.Text(), err)
			}
			s[unit] = append(s[unit], v)
		}
	}
	return out, sc.Err()
}

// median returns the middle of vs (the mean of the two middle values of an
// even count).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		m = max(m, v)
	}
	return m
}

// verdict is the gate's reading of one benchmark name.
type verdict struct {
	name       string
	base, head series // nil on the side that did not run it
	slower     int    // pairs in which the head took longer
	failures   []string
}

// gate pairs the two sides' runs by occurrence and judges every name that
// ran on both. It refuses a name that did not run pairs times on each side.
func gate(base, head map[string]series) ([]verdict, error) {
	names := make([]string, 0, len(base)+len(head))
	for name := range base {
		names = append(names, name)
	}
	for name := range head {
		if base[name] == nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]verdict, 0, len(names))
	for _, name := range names {
		v := verdict{name: name, base: base[name], head: head[name]}
		if v.base == nil || v.head == nil {
			out = append(out, v)
			continue
		}
		b, h := v.base[nsPerOp], v.head[nsPerOp]
		if len(b) != pairs || len(h) != pairs {
			return nil, fmt.Errorf("%s ran %d times on the base and %d on the head; the gate needs %d pairs", name, len(b), len(h), pairs)
		}
		for k := range b {
			if h[k] > b[k] {
				v.slower++
			}
		}
		if mb, mh := median(b), median(h); v.slower >= minSlower && mh > (1+timeBound)*mb {
			v.failures = append(v.failures, fmt.Sprintf("slower in %d of %d pairs, median %+.1f%% (bound %.0f%%)",
				v.slower, len(b), 100*(mh/mb-1), 100*timeBound))
		}
		for _, unit := range []string{allocsPerOp, bytesPerRecord} {
			bv, hv := v.base[unit], v.head[unit]
			switch {
			case len(bv) == 0:
			case len(hv) == 0:
				v.failures = append(v.failures, "no longer reports "+unit)
			case median(hv) > maxOf(bv):
				v.failures = append(v.failures, fmt.Sprintf("%s %g -> %g", unit, maxOf(bv), median(hv)))
			}
		}
		out = append(out, v)
	}
	return out, nil
}

// rowFormat lays out a line of the gate's table.
const rowFormat = "%-55s %14s %14s %8s %6s %10s %10s %10s %10s  %s"

// row formats one verdict as a line of the gate's table.
func (v verdict) row() string {
	cell := func(s series, unit string) string {
		if len(s[unit]) == 0 {
			return "-"
		}
		return strconv.FormatFloat(math.Round(10*median(s[unit]))/10, 'f', -1, 64)
	}
	status := "ok"
	switch {
	case v.base == nil:
		status = "head only"
	case v.head == nil:
		status = "base only"
	case len(v.failures) > 0:
		status = "FAIL: " + strings.Join(v.failures, "; ")
	}
	delta, slower := "", ""
	if v.base != nil && v.head != nil {
		delta = fmt.Sprintf("%+.1f%%", 100*(median(v.head[nsPerOp])/median(v.base[nsPerOp])-1))
		slower = fmt.Sprintf("%d/%d", v.slower, len(v.base[nsPerOp]))
	}
	return fmt.Sprintf(rowFormat, v.name,
		cell(v.base, nsPerOp), cell(v.head, nsPerOp), delta, slower,
		cell(v.base, allocsPerOp), cell(v.head, allocsPerOp),
		cell(v.base, bytesPerRecord), cell(v.head, bytesPerRecord), status)
}

func parseFile(path string) (map[string]series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	results, err := parseBench(f)
	if err == nil && len(results) == 0 {
		err = fmt.Errorf("no benchmark results found in %s", path)
	}
	return results, err
}

func run() error {
	var (
		basePath = flag.String("base", "", "benchmark output of the merge-base")
		headPath = flag.String("head", "", "benchmark output of the change, run alternately with -base on the same machine")
	)
	flag.Parse()

	if *basePath == "" || *headPath == "" {
		return fmt.Errorf("-base and -head are both required")
	}
	base, err := parseFile(*basePath)
	if err != nil {
		return err
	}
	head, err := parseFile(*headPath)
	if err != nil {
		return err
	}
	verdicts, err := gate(base, head)
	if err != nil {
		return err
	}
	fmt.Printf(rowFormat+"\n", "benchmark (medians)",
		"base ns/op", "head ns/op", "delta", "slower", "base alloc", "head alloc", "base B/rec", "head B/rec", "verdict")
	failed := 0
	for _, v := range verdicts {
		fmt.Println(v.row())
		if v.head == nil {
			fmt.Fprintf(os.Stderr, "GATE: warning: %s ran on the base only (deleted, skipped or renamed on the head): not gated\n", v.name)
		}
		for _, f := range v.failures {
			fmt.Fprintf(os.Stderr, "GATE: %s: %s\n", v.name, f)
		}
		if len(v.failures) > 0 {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("perf gate failed: %d of %d benchmarks regressed", failed, len(verdicts))
	}
	fmt.Printf("perf gate passed: %d benchmarks\n", len(verdicts))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cqms-benchgate:", err)
		os.Exit(1)
	}
}
