package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // 1000 … 1, unsorted on purpose
	}
	for _, tc := range []struct {
		q      float64
		value  float64
		beyond int
	}{
		{0.50, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1, 1000, 0},
	} {
		if v := percentile(samples, tc.q); v != tc.value {
			t.Errorf("percentile(q=%g) = %g, want %g", tc.q, v, tc.value)
		}
		if beyond := len(samples) - nearestRank(len(samples), tc.q); beyond != tc.beyond {
			t.Errorf("%d samples beyond q=%g, want %d", beyond, tc.q, tc.beyond)
		}
	}
	if samples[0] != 1000 {
		t.Error("percentile sorted its input in place")
	}
	if v := percentile(nil, 0.5); v != 0 {
		t.Errorf("percentile(nil) = %g", v)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g %g %g, want 1 2 4", q1, q2, q3)
	}
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
	q1, q2, q3 = quartiles([]float64{1, 3})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles(1,3) = %g %g %g, want 0.5 2 3.5", q1, q2, q3)
	}
}

// phase builds a load phase of one-second windows: perWindow samples in each,
// window w's latencies all equal to ms[w], 100 ms of CPU per window.
func phase(perWindow int, ms ...float64) *runStats {
	rs := &runStats{marks: make([]mark, len(ms)+1)}
	for w, lat := range ms {
		rs.marks[w+1] = mark{at: time.Duration(w+1) * time.Second, cpu: time.Duration(w+1) * 100 * time.Millisecond}
		for i := 0; i < perWindow; i++ {
			at := time.Duration(w)*time.Second + time.Duration(i)*time.Second/time.Duration(perWindow)
			rs.samples = append(rs.samples, sample{kind: opSubmit, at: at, ms: lat, ok: true})
		}
	}
	rs.elapsed = rs.marks[len(ms)].at
	return rs
}

// A stall owns its window: the run's numbers are medians over windows.
func TestMeasureIsTheMedianOverWindows(t *testing.T) {
	rs := phase(20, 1, 1, 50, 1, 2)
	rs.marks[3].steal, rs.marks[4].steal, rs.marks[5].steal = time.Second, time.Second, time.Second
	// The stalled window got through fewer ops on more CPU.
	rs.samples = append(rs.samples[:40], rs.samples[50:]...)
	m := rs.measure([]mixEntry{{opSubmit, 1}})
	if m.windows != 5 || m.p50 != 1 || m.opsPerSec != 20 || m.cpuMsPerOp != 5 {
		t.Errorf("measured %+v; want 5 windows, p50 1 ms, 20 ops/s, 5 ms CPU per op", m)
	}
	if m.tail != 0 {
		t.Errorf("tail = %g from a phase that reports none", m.tail)
	}
	if want := 1.0 / (5 * float64(nproc)); m.stolen != want {
		t.Errorf("stolen share %g, want %g", m.stolen, want)
	}
}

// The level comes from the planned window size alone: the highest of
// p99/p95/p90 that keeps ten samples beyond it.
func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		perWindow int
		level     float64
	}{
		{1875, 0.99}, // capture_ingest at 15 s: 18 beyond p99
		{1000, 0.99}, // exactly ten beyond
		{999, 0.95},  // nine beyond p99
		{450, 0.95},  // explore_mix at 15 s
		{200, 0.95},  // exactly ten beyond
		{199, 0.90},
		{100, 0.90},
		{99, 0.75},
		{40, 0.75},
		{39, 0.50}, // a smoke run's windows
		{0, 0.50},
	} {
		if got := tailLevel(tc.perWindow); got != tc.level {
			t.Errorf("tailLevel(%d) = %g, want %g", tc.perWindow, got, tc.level)
		}
	}
}

func TestMeasureTakesTheTailInsideEachWindow(t *testing.T) {
	rs := phase(200, 1, 1, 1)
	rs.level = tailLevel(200)
	for i := range rs.samples {
		if i%20 == 0 { // the slowest twentieth of every window, ten samples each
			rs.samples[i].ms = 9
		}
	}
	rs.samples[1].ms = 500 // one outlier in one window: beyond every window's p95
	mix := []mixEntry{{opSubmit, 1}}
	if m := rs.measure(mix); m.tail != 1 {
		t.Errorf("p95 = %g, want 1: the ten slow samples of each 200 lie beyond it", m.tail)
	}
	for i := range rs.samples {
		if i%20 == 1 {
			rs.samples[i].ms = 9
		}
	}
	if m := rs.measure(mix); m.tail != 9 {
		t.Errorf("p95 = %g, want 9 once a tenth of every window is slow", m.tail)
	}
}

func TestGeneratorLatenessAndBacklog(t *testing.T) {
	ms := time.Millisecond
	rs := &runStats{}
	// Two clients; client A's second op waits 3 ms to be sent while client
	// B's first is also due: two ops unsent at once.
	for i := 0; i < 98; i++ {
		at := time.Duration(100+10*i) * ms
		rs.samples = append(rs.samples, sample{kind: opStats, due: at, at: at, ok: true})
	}
	rs.samples = append(rs.samples,
		sample{kind: opKeyword, due: 10 * ms, at: 13 * ms, ok: true},
		sample{kind: opPage2, at: 13 * ms, ok: true}, // the same op's second page: not an op of its own
		sample{kind: opSubmit, due: 11 * ms, at: 12 * ms, ok: true},
	)
	if got := rs.lateP99(); got != 1 {
		t.Errorf("lateP99 = %g ms, want 1: of 100 ops one ran 3 ms late, one 1 ms", got)
	}
	if got := rs.maxBacklog(); got != 2 {
		t.Errorf("maxBacklog = %d, want 2", got)
	}
	// Sent the instant the next falls due: never two at once.
	rs.samples = []sample{{due: 0, at: 5 * ms}, {due: 5 * ms, at: 6 * ms}}
	if got := rs.maxBacklog(); got != 1 {
		t.Errorf("maxBacklog = %d for back-to-back ops, want 1", got)
	}
}

func TestMeasureDropsAShortLastWindow(t *testing.T) {
	rs := phase(10, 1, 1, 1)
	rs.marks = append(rs.marks, mark{at: 3*time.Second + 200*time.Millisecond, cpu: 400 * time.Millisecond})
	rs.samples = append(rs.samples, sample{kind: opSubmit, at: 3*time.Second + 100*time.Millisecond, ms: 80, ok: true})
	if m := rs.measure([]mixEntry{{opSubmit, 1}}); m.windows != 3 {
		t.Errorf("measured over %d windows, want the 0.2 s stub dropped", m.windows)
	}
}

func TestMixP50WeightsKindsByShare(t *testing.T) {
	var samples []sample
	for i := 0; i < 5; i++ {
		samples = append(samples, sample{kind: opSubmit, ms: 2, ok: true}, sample{kind: opStats, ms: 10, ok: true})
	}
	samples = append(samples, sample{kind: opStats, ms: 1000, ok: false}) // failed: no latency
	mix := []mixEntry{{opSubmit, 3}, {opStats, 1}, {opComplete, 6}}
	// complete has no samples and drops out of the weighting.
	if got, want := mixP50(samples, mix), (3*2.0+1*10.0)/4; got != want {
		t.Errorf("mixP50 = %g, want %g", got, want)
	}
}

func TestInputsAreDeterministicPerSeed(t *testing.T) {
	spec := workloadByName("explore_mix")
	a, b, c := generate(spec, 7, 5), generate(spec, 7, 5), generate(spec, 8, 5)
	if a.digest != b.digest || !reflect.DeepEqual(a.ops, b.ops) {
		t.Error("the same seed generated different inputs")
	}
	if a.digest == c.digest {
		t.Error("different seeds generated the same inputs")
	}
	if len(a.ops) != int(5*spec.rate) || len(a.preload) != spec.preload {
		t.Fatalf("5 s at %g ops/s generated %d ops and %d preloaded records", spec.rate, len(a.ops), len(a.preload))
	}
	// Whatever the seed, the composition is the same: decks, not dice.
	count := func(ops []op) (kinds [numOpKinds]int, terms map[string]int) {
		terms = map[string]int{}
		for _, o := range ops {
			kinds[o.kind]++
			if o.kind == opKeyword {
				terms[o.text]++
			}
		}
		return kinds, terms
	}
	ka, ta := count(a.ops)
	kc, tc := count(c.ops)
	if ka != kc {
		t.Errorf("op kinds differ across seeds: %v vs %v", ka, kc)
	}
	if n := len(a.ops); ka[opSubmit] != n*60/100 || ka[opComplete] != n*15/100 {
		t.Errorf("mix not honoured exactly: %v of %d", ka, n)
	}
	for term, n := range ta {
		if d := n - tc[term]; d < -1 || d > 1 {
			t.Errorf("keyword %q drawn %d times under one seed, %d under another", term, n, tc[term])
		}
	}
}

func TestCaptureStreamIsOneBatchIn49(t *testing.T) {
	spec := workloadByName("capture_ingest")
	in := generate(spec, 1, 1)
	if len(in.ops) != int(spec.rate) {
		t.Fatalf("generated %d ops", len(in.ops))
	}
	batches := 0
	for _, o := range in.ops {
		if o.kind == opBatch {
			batches++
			if len(o.batch) != batchSize {
				t.Fatalf("batch of %d statements", len(o.batch))
			}
		}
	}
	if batches != len(in.ops)/49 && batches != len(in.ops)/49+1 {
		t.Errorf("%d batches among %d ops, want one in 49", batches, len(in.ops))
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},              // client
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 90},   // server
		{ID: 3, Parent: 2, StartNs: 20, EndNs: 50},   // overlapping children of 2:
		{ID: 4, Parent: 2, StartNs: 40, EndNs: 70},   // covered 20–70 once, not 20–50 + 40–70
		{ID: 5, Parent: 2, StartNs: 85, EndNs: 120},  // clipped to its parent's end
		{ID: 6, StartNs: 200, EndNs: 230},            // a root with no children
		{ID: 7, Parent: 99, StartNs: 0, EndNs: 1000}, // parent not recorded: nobody is charged
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 20, 2: 80 - 50 - 5, 3: 30, 4: 30, 5: 35, 6: 30, 7: 1000} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP cqms_bus_callback_seconds Mutation-bus callback duration.
# TYPE cqms_bus_callback_seconds histogram
cqms_bus_callback_seconds_bucket{subscriber="wal",le="0.001"} 7
cqms_bus_callback_seconds_sum{subscriber="wal"} 0.00025
cqms_bus_callback_seconds_count{subscriber="wal"} 10
cqms_bus_callback_seconds_sum{subscriber="search index"} 0.001
cqms_bus_callback_seconds_count{subscriber="search index"} 4

cqms_wal_fsyncs_total{policy="always"} 42
cqms_store_records 1.5e+04
`
	s, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := s[`cqms_wal_fsyncs_total{policy="always"}`]; got != 42 {
		t.Errorf("counter = %g", got)
	}
	if got := s["cqms_store_records"]; got != 15000 {
		t.Errorf("gauge = %g", got)
	}
	if got := s.histMeanUs("cqms_bus_callback_seconds", `{subscriber="wal"}`); math.Abs(got-25) > 1e-9 {
		t.Errorf("mean = %g us, want 25", got)
	}
	if got, want := s.labelValues("cqms_bus_callback_seconds_count", "subscriber"), []string{"search index", "wal"}; !reflect.DeepEqual(got, want) {
		t.Errorf("subscribers = %q, want %q", got, want)
	}
	if got := s.labelValues("cqms_wal_fsyncs_total", "policy"); !reflect.DeepEqual(got, []string{"always"}) {
		t.Errorf("policies = %q", got)
	}
	before := promSample{`cqms_wal_fsyncs_total{policy="always"}`: 40}
	if d := s.sub(before); d[`cqms_wal_fsyncs_total{policy="always"}`] != 2 || d["cqms_store_records"] != 15000 {
		t.Errorf("delta = %v", d)
	}
	if _, err := parseProm("novalue\n"); err == nil {
		t.Error("a line without a value parsed")
	}
	if _, err := parseProm("x notanumber\n"); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

// BENCHMARK.json is what the driver reads; the lists in spec.go are what the
// program prints. They must name the same things.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, code has %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(section string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d listed, %d defined", section, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: %+v, code has %s %s %s", section, i, m, d.name, d.unit, d.better)
			}
			if bounded && (m.Bound == nil || *m.Bound != d.bound) {
				t.Errorf("%s: bound of %s differs from the code's %g", section, d.name, d.bound)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s: %s carries a bound", section, d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, tracedMetrics(), false)
}

// The smoke run keeps the benchmark compiling and running end to end under
// the repository's tests: every code path once, at a tenth of the size.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the whole stack")
	}
	scratch = t.TempDir()
	for _, tc := range []struct {
		workload string
		traced   bool
	}{
		{"explore_mix", false},
		{"browse_search", true},
		{"capture_ingest", true},
		{"restart_catchup", false},
	} {
		if code := runOne(workloadByName(tc.workload), 1, 4, tc.traced, true); code != 0 {
			t.Errorf("%s (traced %t) exited %d", tc.workload, tc.traced, code)
		}
		if tc.traced {
			if _, err := os.Stat(filepath.Join(scratch, "trace-"+tc.workload+".jsonl")); err != nil {
				t.Errorf("%s wrote no trace file: %v", tc.workload, err)
			}
		}
	}
}
