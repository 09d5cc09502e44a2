package telemetry

import (
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "events")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Idempotent registration returns the same instance.
	if again := r.Counter("test_events_total", "events"); again.Value() != 5 {
		t.Errorf("re-registered counter = %d, want 5", again.Value())
	}

	g := r.Gauge("test_in_flight", "in flight")
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(10)
	if got := g.Value(); got != 11 {
		t.Errorf("gauge = %d, want 11", got)
	}
}

func TestNilReceiversAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(7)
	g.Inc()
	g.Dec()
	g.Add(5)
	h.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments should read as zero")
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	r := NewRegistry()
	buckets := []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond}
	h := r.Histogram("test_latency_seconds", "latency", buckets)
	h.Observe(500 * time.Microsecond) // <= 1ms
	h.Observe(time.Millisecond)       // le is inclusive: still the 1ms bucket
	h.Observe(5 * time.Millisecond)   // <= 10ms
	h.Observe(50 * time.Millisecond)  // <= 100ms
	h.Observe(500 * time.Millisecond) // +Inf
	h.Observe(-time.Second)           // clamps to 0 -> first bucket

	out := scrape(t, r)
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.001"} 3`,
		`test_latency_seconds_bucket{le="0.01"} 4`,
		`test_latency_seconds_bucket{le="0.1"} 5`,
		`test_latency_seconds_bucket{le="+Inf"} 6`,
		`test_latency_seconds_count 6`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	wantSum := (500*time.Microsecond + time.Millisecond + 5*time.Millisecond +
		50*time.Millisecond + 500*time.Millisecond).Seconds()
	if h.Sum().Seconds() != wantSum {
		t.Errorf("sum = %v, want %v", h.Sum().Seconds(), wantSum)
	}
}

// TestConcurrentWriters hammers one counter, gauge and histogram from many
// goroutines; totals must be exact. The CI race job runs this under -race.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "t")
	g := r.Gauge("test_gauge", "t")
	h := r.Histogram("test_hist_seconds", "t", nil)
	vec := r.CounterVec("test_labeled_total", "t", "worker")

	const workers = 8
	const perWorker = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := vec.With("w" + string(rune('a'+w)))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(i) * time.Microsecond)
				mine.Inc()
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := vec.With("w" + string(rune('a'+w))).Value(); got != perWorker {
			t.Errorf("labeled counter %d = %d, want %d", w, got, perWorker)
		}
	}
	// Bucket counts must sum to the observation count.
	var sum uint64
	for i := range h.counts {
		sum += h.counts[i].Load()
	}
	if sum != workers*perWorker {
		t.Errorf("bucket sum = %d, want %d", sum, workers*perWorker)
	}
}

// sampleLine matches a Prometheus text-format sample:
// name{label="value",...} value
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_+][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? -?[0-9+.eEInf-]+$`)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b, false); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second family").Inc()
	r.Counter("a_total", "first family").Add(2)
	vec := r.CounterVec("labeled_total", "labels and escaping", "path", "class")
	vec.With(`C:\logs`+"\n", "2xx").Add(3)
	r.GaugeFunc("computed", "computed at scrape", func() float64 { return 4.5 })
	gv := r.GaugeFuncVec("shards", "per shard", "shard")
	gv.With(func() float64 { return 7 }, "3")
	r.Histogram("h_seconds", "hist", []time.Duration{time.Millisecond}).Observe(time.Microsecond)

	out := scrape(t, r)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for _, line := range lines {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("bad comment line %q", line)
			}
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("sample line does not parse: %q", line)
		}
	}

	// Families sorted by name.
	aIdx := strings.Index(out, "# HELP a_total")
	bIdx := strings.Index(out, "# HELP b_total")
	if aIdx < 0 || bIdx < 0 || aIdx > bIdx {
		t.Errorf("families not sorted:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE a_total counter",
		"# TYPE computed gauge",
		"# TYPE h_seconds histogram",
		`labeled_total{path="C:\\logs\n",class="2xx"} 3`,
		"computed 4.5",
		`shards{shard="3"} 7`,
		`h_seconds_bucket{le="0.001"} 1`,
		`h_seconds_bucket{le="+Inf"} 1`,
		"h_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestHotPathsAreZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "t")
	h := r.Histogram("alloc_seconds", "t", nil)
	vec := r.CounterVec("alloc_labeled_total", "t", "k")
	cached := vec.With("v")

	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(time.Millisecond) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { cached.Inc() }); n != 0 {
		t.Errorf("cached vec child Inc allocates %v per op", n)
	}
}

func TestInvalidRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "t")
	for name, fn := range map[string]func(){
		"kind mismatch": func() { r.Gauge("ok_total", "t") },
		"bad name":      func() { r.Counter("1bad", "t") },
		"bad label":     func() { r.CounterVec("ok2_total", "t", "bad-label") },
		"label arity":   func() { r.CounterVec("ok3_total", "t", "a").With("x", "y") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
