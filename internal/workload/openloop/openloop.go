// Package openloop is the open-loop load harness for the v1 HTTP serving
// path. Unlike the closed-loop trace replay in cmd/cqms-workload (which
// waits for each batch before sending the next, so a slow server throttles
// its own load), this harness dispatches requests on a Poisson arrival
// schedule that does not slow down when the server does: arrivals keep
// coming at the configured rate, latency is measured from each request's
// scheduled arrival time, and queueing delay therefore shows up in the
// percentiles instead of being silently absorbed (the coordinated-omission
// trap).
//
// The generated traffic mixes the four interactive operations of the CQMS
// front end — query submission, keyword search, completion assistance and
// the stats dashboard — across a configurable user population (up to 10^6
// distinct principals), so the server-side stats counters see realistic
// high-cardinality user activity while serving reads.
package openloop

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/workload"
)

// Operation names, used as PerOp keys and mix weights.
const (
	OpSubmit   = "submit"
	OpSearch   = "search"
	OpComplete = "complete"
	OpStats    = "stats"
)

// Mix weights the four operations. Weights are relative; zero disables an
// operation.
type Mix struct {
	Submit   int `json:"submit"`
	Search   int `json:"search"`
	Complete int `json:"complete"`
	Stats    int `json:"stats"`
}

// DefaultMix is submission-heavy with a steady background of interactive
// reads, approximating an exploratory user base where most interactions log
// a query and the rest browse or ask for help.
func DefaultMix() Mix { return Mix{Submit: 60, Search: 15, Complete: 15, Stats: 10} }

func (m Mix) total() int { return m.Submit + m.Search + m.Complete + m.Stats }

// Config sizes one open-loop run.
type Config struct {
	Seed       int64
	Population int           // distinct users issuing traffic
	Rate       float64       // target arrivals per second (Poisson)
	Duration   time.Duration // dispatching window
	// MaxInFlight caps concurrent outstanding requests; arrivals beyond the
	// cap are shed and reported, because an unbounded harness would run out
	// of sockets long before it produced a useful overload signal.
	MaxInFlight int
	Timeout     time.Duration // per-request timeout
	// Skew > 1 draws users from a Zipf distribution with that exponent
	// (heavy hitters); otherwise users are drawn uniformly, which maximises
	// the distinct-user cardinality the stats layer must absorb.
	Skew float64
	Mix  Mix
}

// DefaultConfig returns a small smoke-sized run.
func DefaultConfig() Config {
	return Config{
		Seed:        42,
		Population:  1000,
		Rate:        200,
		Duration:    10 * time.Second,
		MaxInFlight: 512,
		Timeout:     5 * time.Second,
		Mix:         DefaultMix(),
	}
}

// ---------------------------------------------------------------------------
// Latency recording
// ---------------------------------------------------------------------------

// The recorder uses geometric buckets (8% growth from 10µs), so quantile
// estimates carry at most one bucket width (~8% relative) of error while the
// whole recorder stays a fixed-size array — no per-sample allocation at
// 10^5+ samples per run.
const (
	latencyBase    = 10 * time.Microsecond
	latencyGrowth  = 1.08
	latencyBuckets = 220 // upper bound of last bucket ≈ 208s
)

type latencyRecorder struct {
	count   int64
	sum     time.Duration
	max     time.Duration
	buckets [latencyBuckets]int64
}

func bucketIndex(d time.Duration) int {
	if d <= latencyBase {
		return 0
	}
	idx := int(math.Ceil(math.Log(float64(d)/float64(latencyBase)) / math.Log(latencyGrowth)))
	if idx >= latencyBuckets {
		idx = latencyBuckets - 1
	}
	return idx
}

func bucketBound(i int) time.Duration {
	return time.Duration(float64(latencyBase) * math.Pow(latencyGrowth, float64(i)))
}

func (l *latencyRecorder) record(d time.Duration) {
	l.count++
	l.sum += d
	if d > l.max {
		l.max = d
	}
	l.buckets[bucketIndex(d)]++
}

// quantile returns the upper bound of the bucket containing the q-quantile
// sample, clamped to the observed maximum.
func (l *latencyRecorder) quantile(q float64) time.Duration {
	if l.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(l.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range l.buckets {
		cum += l.buckets[i]
		if cum >= rank {
			if b := bucketBound(i); b < l.max {
				return b
			}
			return l.max
		}
	}
	return l.max
}

// LatencySummary is the JSON-facing digest of one recorder.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P90Ms  float64 `json:"p90Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MaxMs  float64 `json:"maxMs"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (l *latencyRecorder) summary() LatencySummary {
	s := LatencySummary{
		Count: l.count,
		P50Ms: ms(l.quantile(0.50)),
		P90Ms: ms(l.quantile(0.90)),
		P99Ms: ms(l.quantile(0.99)),
		MaxMs: ms(l.max),
	}
	if l.count > 0 {
		s.MeanMs = ms(l.sum / time.Duration(l.count))
	}
	return s
}

// ---------------------------------------------------------------------------
// Report and SLO verdict
// ---------------------------------------------------------------------------

// Report is the outcome of one open-loop run, JSON-serialisable so a run's
// numbers can be kept (CI uploads them) and README numbers can cite it.
type Report struct {
	Population  int                       `json:"population"`
	TargetRate  float64                   `json:"targetRate"`
	DurationSec float64                   `json:"durationSec"`
	Offered     int64                     `json:"offered"`
	Completed   int64                     `json:"completed"`
	Failed      int64                     `json:"failed"`
	Shed        int64                     `json:"shed"`
	AchievedQPS float64                   `json:"achievedQPS"`
	Overall     LatencySummary            `json:"overall"`
	PerOp       map[string]LatencySummary `json:"perOp"`
}

// maxFailureRate bounds failed/(failed+completed) in a sustainable run.
const maxFailureRate = 0.01

// CheckSLO returns the list of violations, empty when the report meets the
// SLO: no shed arrivals, at most maxFailureRate of requests failed, and an
// overall p99 within maxP99Ms (0 disables the p99 bound). A sustainable
// operating point is one with no violations. There is no throughput floor:
// with nothing shed, few failures and every request bounded by the
// per-request timeout, the achieved rate is at least
// (1-maxFailureRate) × offered / (duration + timeout).
func (r *Report) CheckSLO(maxP99Ms float64) []string {
	var v []string
	if r.Shed > 0 {
		v = append(v, fmt.Sprintf("shed %d arrivals: server did not keep up with the offered rate", r.Shed))
	}
	if maxP99Ms > 0 && r.Overall.P99Ms > maxP99Ms {
		v = append(v, fmt.Sprintf("p99 %.1fms > bound %gms", r.Overall.P99Ms, maxP99Ms))
	}
	if total := r.Failed + r.Completed; total > 0 {
		if rate := float64(r.Failed) / float64(total); rate > maxFailureRate {
			v = append(v, fmt.Sprintf("failure rate %.2f%% > bound %.2f%%", rate*100, maxFailureRate*100))
		}
	}
	return v
}

// Format renders the report as readable text.
func (r *Report) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "open-loop: population %d, target %.0f req/s for %.1fs\n",
		r.Population, r.TargetRate, r.DurationSec)
	fmt.Fprintf(&sb, "  offered %d  completed %d  failed %d  shed %d  achieved %.1f qps\n",
		r.Offered, r.Completed, r.Failed, r.Shed, r.AchievedQPS)
	fmt.Fprintf(&sb, "  overall   p50 %7.2fms  p90 %7.2fms  p99 %7.2fms  max %7.2fms\n",
		r.Overall.P50Ms, r.Overall.P90Ms, r.Overall.P99Ms, r.Overall.MaxMs)
	ops := make([]string, 0, len(r.PerOp))
	for op := range r.PerOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		s := r.PerOp[op]
		fmt.Fprintf(&sb, "  %-9s p50 %7.2fms  p90 %7.2fms  p99 %7.2fms  max %7.2fms  (%d ok)\n",
			op, s.P50Ms, s.P90Ms, s.P99Ms, s.MaxMs, s.Count)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------------

// arrival is one planned request: all randomness is drawn on the dispatcher
// goroutine, so the worker only executes.
type arrival struct {
	op  string
	run func(ctx context.Context) error
}

type collector struct {
	mu      sync.Mutex
	overall latencyRecorder
	perOp   map[string]*latencyRecorder
	failed  int64
}

func (c *collector) record(op string, d time.Duration, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.failed++
		return
	}
	c.overall.record(d)
	rec := c.perOp[op]
	if rec == nil {
		rec = &latencyRecorder{}
		c.perOp[op] = rec
	}
	rec.record(d)
}

var searchTerms = []string{"watertemp", "salinity", "stars", "sensors", "observations"}

var completePartials = map[string][]string{
	"limnology": {
		"SELECT * FROM WaterTemp WHERE ",
		"SELECT lake, temp FROM WaterTemp WHERE temp ",
		"SELECT * FROM WaterSalinity WHERE ",
	},
	"astro": {
		"SELECT name FROM Stars WHERE ",
		"SELECT * FROM Observations WHERE ",
	},
}

// Run executes one open-loop run against the server at baseURL and returns
// its report. The context cancels the run early; the report then covers the
// traffic dispatched so far.
func Run(ctx context.Context, baseURL string, cfg Config) (*Report, error) {
	if cfg.Population <= 0 {
		return nil, fmt.Errorf("openloop: population must be positive, got %d", cfg.Population)
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("openloop: rate must be positive, got %g", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("openloop: duration must be positive, got %s", cfg.Duration)
	}
	if cfg.MaxInFlight <= 0 {
		return nil, fmt.Errorf("openloop: in-flight cap must be positive, got %d", cfg.MaxInFlight)
	}
	if cfg.Timeout <= 0 {
		return nil, fmt.Errorf("openloop: request timeout must be positive, got %s", cfg.Timeout)
	}
	if cfg.Mix.total() <= 0 {
		return nil, fmt.Errorf("openloop: operation mix has no positive weights")
	}

	// A dedicated transport sized to the in-flight cap: the default keeps
	// only two idle connections per host, which at hundreds of concurrent
	// requests degenerates into connection churn and measures the TCP stack
	// instead of the server.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = cfg.MaxInFlight
	transport.MaxIdleConnsPerHost = cfg.MaxInFlight
	httpClient := &http.Client{Timeout: cfg.Timeout, Transport: transport}
	defer transport.CloseIdleConnections()
	base := client.New(baseURL, client.WithHTTPClient(httpClient), client.WithPageSize(25))

	r := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if cfg.Skew > 1 && cfg.Population > 1 {
		zipf = rand.NewZipf(r, cfg.Skew, 1, uint64(cfg.Population-1))
	}
	src := workload.NewQuerySource(cfg.Seed + 1)

	col := &collector{perOp: make(map[string]*latencyRecorder)}
	sem := make(chan struct{}, cfg.MaxInFlight)
	var wg sync.WaitGroup
	var offered, shed int64

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	next := start
	for next.Before(deadline) && ctx.Err() == nil {
		if !sleepUntil(ctx, next) {
			break
		}
		a := plan(r, zipf, src, base, cfg)
		offered++
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(a arrival, scheduled time.Time) {
				defer wg.Done()
				defer func() { <-sem }()
				reqCtx, cancel := context.WithTimeout(ctx, cfg.Timeout)
				err := a.run(reqCtx)
				cancel()
				// Latency from the scheduled arrival, not the dispatch
				// instant: a backlogged schedule charges its queueing delay
				// to the measurement.
				col.record(a.op, time.Since(scheduled), err)
			}(a, next)
		default:
			shed++
		}
		// Poisson arrivals: exponential inter-arrival times.
		next = next.Add(time.Duration(r.ExpFloat64() / cfg.Rate * float64(time.Second)))
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		Population:  cfg.Population,
		TargetRate:  cfg.Rate,
		DurationSec: elapsed.Seconds(),
		Offered:     offered,
		Completed:   col.overall.count,
		Failed:      col.failed,
		Shed:        shed,
		Overall:     col.overall.summary(),
		PerOp:       make(map[string]LatencySummary, len(col.perOp)),
	}
	if elapsed > 0 {
		rep.AchievedQPS = float64(col.overall.count) / elapsed.Seconds()
	}
	for op, rec := range col.perOp {
		rep.PerOp[op] = rec.summary()
	}
	return rep, nil
}

// plan draws one arrival: operation, acting user, and the request closure.
func plan(r *rand.Rand, zipf *rand.Zipf, src *workload.QuerySource, base *client.Client, cfg Config) arrival {
	idx := 0
	if zipf != nil {
		idx = int(zipf.Uint64())
	} else if cfg.Population > 1 {
		idx = r.Intn(cfg.Population)
	}
	user := workload.UserName(idx)
	group := workload.GroupOf(idx, cfg.Population)
	c := base.As(user, group)

	switch op := pickOp(r, cfg.Mix); op {
	case OpSearch:
		term := searchTerms[r.Intn(len(searchTerms))]
		return arrival{op: op, run: func(ctx context.Context) error {
			it := c.SearchKeyword(ctx, term)
			it.Next() // first page only: an interactive user stops early
			return it.Err()
		}}
	case OpComplete:
		partials := completePartials[group]
		partial := partials[r.Intn(len(partials))]
		return arrival{op: op, run: func(ctx context.Context) error {
			_, err := c.Complete(ctx, partial, 5)
			return err
		}}
	case OpStats:
		return arrival{op: op, run: func(ctx context.Context) error {
			_, err := c.Stats(ctx)
			return err
		}}
	default:
		sqlText := src.Query(group)
		return arrival{op: OpSubmit, run: func(ctx context.Context) error {
			_, err := c.Submit(ctx, sqlText, client.Group(group), client.Visibility("group"))
			return err
		}}
	}
}

func pickOp(r *rand.Rand, m Mix) string {
	n := r.Intn(m.total())
	if n < m.Submit {
		return OpSubmit
	}
	n -= m.Submit
	if n < m.Search {
		return OpSearch
	}
	n -= m.Search
	if n < m.Complete {
		return OpComplete
	}
	return OpStats
}

// sleepUntil blocks until t or context cancellation; it reports whether the
// deadline was reached.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}
