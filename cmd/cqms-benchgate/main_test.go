package main

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkE3CompletionIncremental-8   	   20000	     55000 ns/op	 12000 B/op	 150 allocs/op
BenchmarkE3CompletionIncremental-8   	   21000	     52000 ns/op	 12000 B/op	 149 allocs/op
BenchmarkConcurrentMetaQuery/readers=4-8 	    5000	    230000 ns/op
BenchmarkHTTPSubmitBatch 	     300	   4100000 ns/op	 90000 B/op	 800 allocs/op
BenchmarkWALAppend/sync=off-8 	  300000	      3300 ns/op	       263.0 B/record	    1400 B/op	       7 allocs/op
PASS
ok  	repro	17.497s
`

func TestParseBench(t *testing.T) {
	results, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(results), results)
	}
	// Every run is kept, in the order its line appeared.
	inc := results["E3CompletionIncremental"]
	if fmt.Sprint(inc[nsPerOp], inc[allocsPerOp]) != "[55000 52000] [150 149]" {
		t.Errorf("E3CompletionIncremental = %v, want both runs in order", inc)
	}
	// No -benchmem fields: no allocation series, not a measured zero. The
	// sub-benchmark name survives and the -GOMAXPROCS suffix is stripped.
	if cmq, ok := results["ConcurrentMetaQuery/readers=4"]; !ok || cmq[allocsPerOp] != nil {
		t.Errorf("ConcurrentMetaQuery/readers=4 = %v (found %v), want ns/op only", cmq, ok)
	}
	// Lines without a -procs suffix parse too; B/op is not read.
	if s := results["HTTPSubmitBatch"]; fmt.Sprint(s) != "map[allocs/op:[800] ns/op:[4.1e+06]]" {
		t.Errorf("HTTPSubmitBatch = %v", s)
	}
	if s := results["WALAppend/sync=off"]; fmt.Sprint(s[bytesPerRecord]) != "[263]" {
		t.Errorf("WALAppend/sync=off B/record = %v, want [263]", s[bytesPerRecord])
	}
}

// runs writes one result line per ns/op value (and allocs/op, when given).
func runs(name string, ns []float64, allocs ...float64) string {
	var b strings.Builder
	for i, v := range ns {
		fmt.Fprintf(&b, "Benchmark%s-2 \t 1000\t %s ns/op", name, strconv.FormatFloat(v, 'f', -1, 64))
		if len(allocs) > 0 {
			fmt.Fprintf(&b, "\t 64 B/op\t %g allocs/op", allocs[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func mustGate(t *testing.T, base, head string) map[string]verdict {
	t.Helper()
	b, err := parseBench(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseBench(strings.NewReader(head))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := gate(b, h)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]verdict{}
	for _, v := range vs {
		out[v.name] = v
	}
	return out
}

// rep returns pairs copies of v, one value per run.
func rep(v float64) []float64 {
	vs := make([]float64, pairs)
	for k := range vs {
		vs[k] = v
	}
	return vs
}

// TestGatePairsByOccurrence: the k-th head run is compared with the k-th
// base run, whatever the other runs read. A host that slows down for a
// while slows both runs of a pair; an unpaired comparison would see a
// head slower than most base runs.
func TestGatePairsByOccurrence(t *testing.T) {
	base := []float64{100, 100, 100, 100, 100, 200, 200, 200, 200, 200}
	head := []float64{99, 99, 99, 99, 99, 199, 199, 199, 199, 250}
	v := mustGate(t, runs("Drift", base), runs("Drift", head))["Drift"]
	if v.slower != 1 || len(v.failures) != 0 {
		t.Fatalf("slower = %d, failures = %v; want 1 slower pair and a pass", v.slower, v.failures)
	}
}

// TestGate is the time rule: slower in at least 9 of 10 pairs and a median
// beyond timeBound fails; either alone passes.
func TestGate(t *testing.T) {
	over := 1 + timeBound + 0.05
	within := 1 + timeBound - 0.05
	base := []float64{1000, 1010, 990, 1005, 995, 1000, 1020, 980, 1000, 1000}
	scaled := func(f float64, slowPairs int) []float64 {
		h := make([]float64, len(base))
		for k, b := range base {
			h[k] = b * f
			if k >= slowPairs {
				h[k] = b * 0.99
			}
		}
		return h
	}
	for _, c := range []struct {
		name string
		head []float64
		fail bool
	}{
		{"SlowerInTenWithinBound", scaled(within, 10), false},
		{"SlowerInNineBeyondBound", scaled(over, 9), true},
		{"SlowerInTenBeyondBound", scaled(over, 10), true},
		{"SlowerInEightBeyondBound", scaled(over, 8), false},
		{"Faster", scaled(0.5, 0), false},
	} {
		v := mustGate(t, runs(c.name, base), runs(c.name, c.head))[c.name]
		if got := len(v.failures) > 0; got != c.fail {
			t.Errorf("%s: failures = %v, want failing %v", c.name, v.failures, c.fail)
		}
	}
}

// TestGateAllocs: allocs/op compares the head's median with the most the
// base showed; a zero-alloc base fails on any allocation.
func TestGateAllocs(t *testing.T) {
	ns := rep(100)
	noisyBase := []float64{800, 801, 803, 800, 802, 801, 800, 800, 802, 801}
	noisyHead := []float64{803, 800, 801, 802, 803, 800, 801, 801, 800, 802}
	vs := mustGate(t,
		runs("ZeroAlloc", ns, rep(0)...)+
			runs("StillZero", ns, rep(0)...)+
			runs("Exact", ns, rep(18)...)+
			runs("Noisy", ns, noisyBase...)+
			runs("Grown", ns, rep(18)...),
		runs("ZeroAlloc", ns, rep(1)...)+
			runs("StillZero", ns, rep(0)...)+
			runs("Exact", ns, rep(18)...)+
			runs("Noisy", ns, noisyHead...)+
			runs("Grown", ns, rep(19)...))
	for name, fail := range map[string]bool{"ZeroAlloc": true, "StillZero": false, "Exact": false, "Noisy": false, "Grown": true} {
		if got := len(vs[name].failures) > 0; got != fail {
			t.Errorf("%s: failures = %v, want failing %v", name, vs[name].failures, fail)
		}
	}
}

// TestGateAllocUnits: allocation counts are judged on their own, whatever
// the time rule says: a faster head with more allocations fails, a slower
// one with fewer passes on allocs.
func TestGateAllocUnits(t *testing.T) {
	base, fast := rep(100), rep(50)
	vs := mustGate(t,
		runs("FasterMoreAllocs", base, rep(10)...)+runs("FewerAllocs", base, rep(10)...),
		runs("FasterMoreAllocs", fast, rep(11)...)+runs("FewerAllocs", base, rep(2)...))
	if f := vs["FasterMoreAllocs"].failures; len(f) != 1 || !strings.HasPrefix(f[0], allocsPerOp) {
		t.Errorf("FasterMoreAllocs failures = %v, want one allocs/op failure", f)
	}
	if f := vs["FewerAllocs"].failures; len(f) != 0 {
		t.Errorf("FewerAllocs failures = %v, want none", f)
	}
}

// TestGateBytesPerRecord: B/record compares like allocs/op, and a head that
// stops reporting it fails.
func TestGateBytesPerRecord(t *testing.T) {
	lines := func(name string, perRecord float64) string {
		var b strings.Builder
		for range pairs {
			if perRecord > 0 {
				fmt.Fprintf(&b, "Benchmark%s-2 \t 3\t 15000000 ns/op\t %.1f B/record\n", name, perRecord)
			} else {
				fmt.Fprintf(&b, "Benchmark%s-2 \t 3\t 15000000 ns/op\n", name)
			}
		}
		return b.String()
	}
	vs := mustGate(t,
		lines("Same", 540)+lines("Wider", 540)+lines("Dropped", 540),
		lines("Same", 540)+lines("Wider", 541)+lines("Dropped", 0))
	if f := vs["Same"].failures; len(f) != 0 {
		t.Errorf("Same failures = %v, want none", f)
	}
	if f := vs["Wider"].failures; len(f) != 1 || f[0] != "B/record 540 -> 541" {
		t.Errorf("Wider failures = %v, want B/record 540 -> 541", f)
	}
	if f := vs["Dropped"].failures; len(f) != 1 || f[0] != "no longer reports B/record" {
		t.Errorf("Dropped failures = %v, want the dropped B/record", f)
	}
}

// TestGateOneSidedNames: a benchmark on one side only is listed and gets no
// verdict, however its numbers read.
func TestGateOneSidedNames(t *testing.T) {
	ns := rep(100)
	vs := mustGate(t, runs("Kept", ns)+runs("Removed", ns, rep(0)...),
		runs("Kept", ns)+runs("Added", []float64{1e9, 1e9}, 99, 99))
	if len(vs) != 3 {
		t.Fatalf("verdicts = %v, want Added, Kept and Removed", vs)
	}
	for name, status := range map[string]string{"Added": "head only", "Removed": "base only", "Kept": "ok"} {
		if v := vs[name]; len(v.failures) != 0 || !strings.HasSuffix(v.row(), status) {
			t.Errorf("%s: row %q, failures %v; want %q and no failure", name, v.row(), v.failures, status)
		}
	}
}

// TestGateRefusesUnequalRuns: a name that did not run pairs times on each
// side cannot be paired by the rule, and the gate says so instead of
// judging.
func TestGateRefusesUnequalRuns(t *testing.T) {
	for _, c := range []struct{ base, head []float64 }{
		{rep(1), rep(1)[1:]},
		{rep(1)[1:], rep(1)[1:]},
	} {
		b, _ := parseBench(strings.NewReader(runs("Short", c.base)))
		h, _ := parseBench(strings.NewReader(runs("Short", c.head)))
		want := fmt.Sprintf("Short ran %d times on the base and %d on the head", len(c.base), len(c.head))
		if _, err := gate(b, h); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("gate error = %v, want %q", err, want)
		}
	}
}
