package openloop

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/workload"
)

// TestBucketIndexRoundTrip pins the geometric histogram's defining property:
// every duration lands in a bucket whose upper bound is within one growth
// factor above it, so quantiles overshoot by at most ~8%.
func TestBucketIndexRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{
		0, time.Microsecond, 10 * time.Microsecond, 11 * time.Microsecond,
		time.Millisecond, 17 * time.Millisecond, time.Second, 3 * time.Minute,
	} {
		i := bucketIndex(d)
		if i < 0 || i >= latencyBuckets {
			t.Fatalf("bucketIndex(%v) = %d out of range", d, i)
		}
		bound := bucketBound(i)
		if bound < d && i < latencyBuckets-1 {
			t.Errorf("bucketBound(%d) = %v below sample %v", i, bound, d)
		}
		if i > 0 && float64(bound) > float64(d)*latencyGrowth*latencyGrowth {
			t.Errorf("bucketBound(%d) = %v overshoots sample %v by more than two growth steps", i, bound, d)
		}
	}
}

func TestQuantilesOrderedAndClamped(t *testing.T) {
	var l latencyRecorder
	rng := rand.New(rand.NewSource(1))
	max := time.Duration(0)
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Intn(200)) * time.Millisecond
		if d > max {
			max = d
		}
		l.record(d)
	}
	p50, p90, p99 := l.quantile(0.50), l.quantile(0.90), l.quantile(0.99)
	if p50 > p90 || p90 > p99 {
		t.Fatalf("quantiles out of order: p50 %v p90 %v p99 %v", p50, p90, p99)
	}
	// Quantiles report bucket upper bounds but never exceed the observed max.
	if p99 > max {
		t.Fatalf("p99 %v exceeds observed max %v", p99, max)
	}
	s := l.summary()
	if s.Count != 5000 || s.MaxMs != ms(max) {
		t.Fatalf("summary count %d max %.2f, want 5000 and %.2f", s.Count, s.MaxMs, ms(max))
	}
}

func TestCheckSLOVerdicts(t *testing.T) {
	base := Report{
		Completed:   1000,
		AchievedQPS: 200,
		Overall:     LatencySummary{P99Ms: 40},
	}
	if v := base.CheckSLO(100); len(v) != 0 {
		t.Fatalf("healthy report should pass, got %v", v)
	}
	shed := base
	shed.Shed = 3
	if v := shed.CheckSLO(0); len(v) != 1 || !strings.Contains(v[0], "shed") {
		t.Fatalf("shed arrivals must always fail the gate, got %v", v)
	}
	slow := base
	slow.Overall.P99Ms = 300
	if v := slow.CheckSLO(100); len(v) != 1 || !strings.Contains(v[0], "p99") {
		t.Fatalf("p99 breach should fail, got %v", v)
	}
	flaky := base
	flaky.Failed = 100
	if v := flaky.CheckSLO(0); len(v) != 1 || !strings.Contains(v[0], "failure rate") {
		t.Fatalf("failure-rate breach should fail, got %v", v)
	}
}

func TestPickOpRespectsMix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	counts := map[string]int{}
	mix := Mix{Submit: 50, Search: 50}
	for i := 0; i < 10000; i++ {
		counts[pickOp(rng, mix)]++
	}
	if counts[OpComplete] != 0 || counts[OpStats] != 0 {
		t.Fatalf("zero-weight ops were picked: %v", counts)
	}
	if counts[OpSubmit] < 4500 || counts[OpSearch] < 4500 {
		t.Fatalf("50/50 mix badly skewed: %v", counts)
	}
}

// TestRunAgainstServer drives one short, low-rate run through the v1 API of
// an in-process server and judges it as cqms-workload does.
func TestRunAgainstServer(t *testing.T) {
	eng := engine.New()
	if err := workload.Populate(eng, 100, 1); err != nil {
		t.Fatalf("Populate: %v", err)
	}
	cqms, err := core.OpenWithEngine(eng, core.DefaultConfig())
	if err != nil {
		t.Fatalf("OpenWithEngine: %v", err)
	}
	ts := httptest.NewServer(server.New(cqms).Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := cqms.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	ctx := context.Background()

	cfg := DefaultConfig()
	cfg.Population = 30
	cfg.Rate = 40
	cfg.Duration = time.Second
	rep, err := Run(ctx, ts.URL, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Completed == 0 || rep.Shed != 0 {
		t.Fatalf("completed %d, shed %d; want some completed and none shed", rep.Completed, rep.Shed)
	}
	if rep.Completed+rep.Failed != rep.Offered {
		t.Fatalf("offered %d, but completed %d + failed %d", rep.Offered, rep.Completed, rep.Failed)
	}
	for op := range rep.PerOp {
		switch op {
		case OpSubmit, OpSearch, OpComplete, OpStats:
		default:
			t.Errorf("per-op key %q is not an operation of the mix", op)
		}
	}
	if v := rep.CheckSLO(0); len(v) != 0 {
		t.Errorf("a low-rate run against an idle server should be sustainable, got %v", v)
	}
	if v := rep.CheckSLO(1e-6); len(v) != 1 || !strings.Contains(v[0], "p99") {
		t.Errorf("an unattainable p99 bound should fail the verdict, got %v", v)
	}

	for name, edit := range map[string]func(*Config){
		"in-flight cap": func(c *Config) { c.MaxInFlight = 0 },
		"timeout":       func(c *Config) { c.Timeout = -time.Second },
	} {
		bad := cfg
		edit(&bad)
		if rep, err := Run(ctx, ts.URL, bad); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("Run with a non-positive %s = %v, %v; want it refused", name, rep, err)
		}
	}
}
