package main

import (
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
BenchmarkRecoveryWithCheckpoint 	       2	1021374038 ns/op	201628820 B/op	 2122579 allocs/op
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
	// -count aggregation keeps the minimum and counts the runs.
	inc := results["E3CompletionIncremental"]
	if inc.NsPerOp != 52000 || inc.Runs != 2 {
		t.Errorf("E3CompletionIncremental = %+v, want min 52000 over 2 runs", inc)
	}
	if inc.AllocsPerOp == nil || *inc.AllocsPerOp != 149 {
		t.Errorf("AllocsPerOp = %v, want 149", inc.AllocsPerOp)
	}
	// No -benchmem fields → no alloc budget, not a measured zero.
	if cmq := results["ConcurrentMetaQuery/readers=4"]; cmq.AllocsPerOp != nil {
		t.Errorf("AllocsPerOp = %v, want nil for a run without -benchmem", *cmq.AllocsPerOp)
	}
	// Sub-benchmark names survive; the -GOMAXPROCS suffix is stripped.
	if _, ok := results["ConcurrentMetaQuery/readers=4"]; !ok {
		t.Errorf("sub-benchmark name mangled: %+v", results)
	}
	// Lines without a -procs suffix parse too.
	if results["HTTPSubmitBatch"].NsPerOp != 4100000 {
		t.Errorf("HTTPSubmitBatch = %+v", results["HTTPSubmitBatch"])
	}
}

func TestGate(t *testing.T) {
	baseline := map[string]Result{
		"Fast":    {NsPerOp: 1000},
		"Slow":    {NsPerOp: 1_000_000},
		"Dropped": {NsPerOp: 500},
	}
	current := map[string]Result{
		"Fast": {NsPerOp: 1900},      // 1.9x: within the 2x gate
		"Slow": {NsPerOp: 2_100_000}, // 2.1x: regression
		"New":  {NsPerOp: 42},        // not gated
	}
	regressions, missing := gate(current, baseline, 2.0, 2.0)
	if len(regressions) != 1 || regressions[0].name != "Slow" {
		t.Fatalf("regressions = %+v, want only Slow", regressions)
	}
	if regressions[0].ratio < 2.09 || regressions[0].ratio > 2.11 {
		t.Errorf("ratio = %v, want ~2.1", regressions[0].ratio)
	}
	if len(missing) != 1 || missing[0] != "Dropped" {
		t.Fatalf("missing = %v, want [Dropped]", missing)
	}
	if r, m := gate(current, baseline, 3.0, 3.0); len(r) != 0 || len(m) != 1 {
		t.Errorf("3x gate: regressions=%v missing=%v", r, m)
	}
}

func allocs(n float64) *float64 { return &n }

// TestGateAllocs drives the allocation budget through synthetic benchmark
// output end to end: parse the baseline run, parse the current run, gate.
func TestGateAllocs(t *testing.T) {
	baseRun := `
BenchmarkLogAppend-8      	 1000000	      1300 ns/op	     475 B/op	       0 allocs/op
BenchmarkWALAppend/sync=always-8 	    9000	    160000 ns/op	    1600 B/op	      18 allocs/op
BenchmarkIngest-8         	   30000	     36000 ns/op	    1650 B/op	      18 allocs/op
BenchmarkUntracked-8      	    5000	    230000 ns/op
PASS
`
	curRun := `
BenchmarkLogAppend-8      	 1000000	      1250 ns/op	     480 B/op	       1 allocs/op
BenchmarkWALAppend/sync=always-8 	    9000	    158000 ns/op	    5000 B/op	      40 allocs/op
BenchmarkIngest-8         	   30000	     35000 ns/op	    1700 B/op	      20 allocs/op
BenchmarkUntracked-8      	    5000	    231000 ns/op
PASS
`
	baseline, err := parseBench(strings.NewReader(baseRun))
	if err != nil {
		t.Fatal(err)
	}
	current, err := parseBench(strings.NewReader(curRun))
	if err != nil {
		t.Fatal(err)
	}
	regressions, missing := gate(current, baseline, 2.0, 2.0)
	if len(missing) != 0 {
		t.Fatalf("missing = %v, want none", missing)
	}
	// Every ns/op is within 2x; the failures must all be allocation budgets:
	// 0 → 1 breaks a zero-alloc budget outright, 18 → 40 exceeds 2x, and
	// 18 → 20 is within budget.
	want := map[string]bool{"LogAppend": true, "WALAppend/sync=always": true}
	for _, r := range regressions {
		if r.metric != "allocs/op" {
			t.Errorf("unexpected %s regression: %+v", r.metric, r)
			continue
		}
		if !want[r.name] {
			t.Errorf("unexpected alloc regression: %+v", r)
		}
		delete(want, r.name)
	}
	for name := range want {
		t.Errorf("alloc regression for %s not reported", name)
	}

	// Dropping -benchmem from the run while the baseline has a budget is a
	// gate failure, not a silent pass.
	noMem, err := parseBench(strings.NewReader(`
BenchmarkLogAppend-8      	 1000000	      1250 ns/op
BenchmarkWALAppend/sync=always-8 	    9000	    158000 ns/op
BenchmarkIngest-8         	   30000	     35000 ns/op
BenchmarkUntracked-8      	    5000	    231000 ns/op
PASS
`))
	if err != nil {
		t.Fatal(err)
	}
	if _, missing := gate(noMem, baseline, 2.0, 2.0); len(missing) != 3 {
		t.Errorf("missing = %v, want the 3 benchmarks with alloc budgets", missing)
	}

	// A measured zero in the current run against a zero baseline passes.
	if r, _ := gate(baseline, baseline, 2.0, 2.0); len(r) != 0 {
		t.Errorf("self-gate regressions = %+v, want none", r)
	}
}

func TestGateAllocUnits(t *testing.T) {
	baseline := map[string]Result{"B": {NsPerOp: 100, AllocsPerOp: allocs(10)}}
	current := map[string]Result{"B": {NsPerOp: 100, AllocsPerOp: allocs(21)}}
	r, _ := gate(current, baseline, 2.0, 2.0)
	if len(r) != 1 || r[0].metric != "allocs/op" || r[0].ratio != 2.1 {
		t.Fatalf("regressions = %+v, want one allocs/op at 2.1x", r)
	}
	// Raising only the alloc ratio clears it.
	if r, _ := gate(current, baseline, 2.0, 2.5); len(r) != 0 {
		t.Fatalf("regressions = %+v, want none at 2.5x alloc ratio", r)
	}
}

// TestGateBytesPerRecord: a benchmark's B/record keeps its minimum across
// runs and fails the gate past 1.05x of the baseline, whatever the time
// ratios allow, or when the run stops reporting it.
func TestGateBytesPerRecord(t *testing.T) {
	baseline, err := parseBench(strings.NewReader(`
BenchmarkWALAppend/sync=off-8 	  300000	      3300 ns/op	       263.0 B/record	    1400 B/op	       7 allocs/op
BenchmarkWALAppend/sync=off-8 	  300000	      3100 ns/op	       250.0 B/record	    1400 B/op	       7 allocs/op
BenchmarkSnapshotWriteRestore/write/10000-8 	       3	  15000000 ns/op	       540.0 B/record
`))
	if err != nil {
		t.Fatal(err)
	}
	if b := baseline["WALAppend/sync=off"].BytesPerRecord; b == nil || *b != 250 {
		t.Fatalf("B/record = %v, want the minimum 250", b)
	}
	current := map[string]Result{
		"WALAppend/sync=off":               {NsPerOp: 3000, AllocsPerOp: allocs(7), BytesPerRecord: allocs(262)},
		"SnapshotWriteRestore/write/10000": {NsPerOp: 15000000, BytesPerRecord: allocs(570)},
	}
	r, m := gate(current, baseline, 2.0, 2.0)
	if len(m) != 0 || len(r) != 1 || r[0].name != "SnapshotWriteRestore/write/10000" || r[0].metric != "B/record" {
		t.Fatalf("regressions = %+v, missing = %v; want only the snapshot's B/record (570 > 1.05 x 540)", r, m)
	}
	current["SnapshotWriteRestore/write/10000"] = Result{NsPerOp: 15000000}
	if _, m := gate(current, baseline, 2.0, 2.0); len(m) != 1 {
		t.Fatalf("missing = %v, want the snapshot's dropped B/record", m)
	}
}
