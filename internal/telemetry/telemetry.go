// Package telemetry is the CQMS metrics layer: a zero-dependency registry of
// atomic counters, gauges and fixed-bucket latency histograms with Prometheus
// text-format exposition. The hot paths (Counter.Inc, Gauge.Add,
// Histogram.Observe) are lock-free and allocation-free; registration and
// label-child creation take locks but happen once per metric, at wiring time.
//
// Every instrument method is nil-receiver safe: a nil *Counter ignores Inc,
// a nil *Histogram ignores Observe. Instrumented code can therefore keep a
// possibly-nil metric field and call it unconditionally — an uninstrumented
// path costs one predictable branch, no registry lookup and no interface
// dispatch.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets is the default histogram bucket layout: roughly exponential
// duration bounds from 1µs to 2.5s, wide enough to cover both an in-memory
// commit (~µs) and a slow fsync or recovery-sized request (~s).
var DefBuckets = []time.Duration{
	time.Microsecond,
	2500 * time.Nanosecond,
	5 * time.Microsecond,
	10 * time.Microsecond,
	25 * time.Microsecond,
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2500 * time.Millisecond,
}

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value (e.g. in-flight requests).
type Gauge struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil receiver.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one. Safe on a nil receiver.
func (g *Gauge) Dec() { g.Add(-1) }

// Add adds delta (which may be negative). Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value; 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket latency histogram. Bounds are inclusive upper
// limits (Prometheus `le` semantics); one implicit +Inf bucket catches the
// overflow. Observe is lock-free: one linear scan over ~20 bounds and three
// atomic adds.
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Int64    // nanoseconds
	total  atomic.Uint64
}

// Observe records one duration. Negative durations clamp to zero. Safe on a
// nil receiver.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.total.Add(1)
}

// CountBuckets returns a bucket layout for a histogram of counts (records
// examined, batch sizes) instead of latencies. Such a histogram is fed by
// ObserveCount and scrapes as plain numbers: le="25", a _sum of counts.
func CountBuckets(bounds ...int) []time.Duration {
	out := make([]time.Duration, len(bounds))
	for i, b := range bounds {
		out[i] = time.Duration(b) * time.Second
	}
	return out
}

// ObserveCount records one count on a histogram built over CountBuckets. The
// exposition renders durations in seconds, so a count of n is stored as n
// seconds. Safe on a nil receiver.
func (h *Histogram) ObserveCount(n int) { h.Observe(time.Duration(n) * time.Second) }

// Count returns the number of observations; 0 on a nil receiver.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of all observed durations; 0 on a nil receiver.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		// Gauge funcs expose as plain gauges.
		return "gauge"
	}
}

// child is one labeled instance inside a family; exactly one field (per the
// family kind) is set.
type child struct {
	values []string
	ctr    *Counter
	gauge  *Gauge
	fn     func() float64
	hist   *Histogram
}

// family is all instances sharing one metric name.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []time.Duration

	mu       sync.RWMutex
	children map[string]*child
}

const childKeySep = "\x00"

// child returns (creating on first use) the instance for the given label
// values. Lookup takes an RLock; creation is once per label combination.
func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, childKeySep)
	f.mu.RLock()
	ch := f.children[key]
	f.mu.RUnlock()
	if ch != nil {
		return ch
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch = f.children[key]; ch != nil {
		return ch
	}
	ch = &child{values: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		ch.ctr = &Counter{}
	case kindGauge:
		ch.gauge = &Gauge{}
	case kindHistogram:
		ch.hist = &Histogram{
			bounds: f.buckets,
			counts: make([]atomic.Uint64, len(f.buckets)+1),
		}
	}
	f.children[key] = ch
	return ch
}

// Registry holds metric families and renders them in Prometheus text format.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns (creating if needed) the named family. Registration is
// idempotent: re-registering the same name with the same kind and labels
// returns the existing family, so independently wired subsystems can share
// a metric. A kind or label-arity mismatch is a programming error and panics.
func (r *Registry) family(name, help string, k kind, labels []string, buckets []time.Duration) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on metric %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different kind or label set", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     k,
		labels:   append([]string(nil), labels...),
		children: make(map[string]*child),
	}
	if k == kindHistogram {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		f.buckets = append([]time.Duration(nil), buckets...)
	}
	r.families[name] = f
	return f
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, nil, nil).child(nil).ctr
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, nil, nil).child(nil).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time.
// Re-registering replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGaugeFunc, nil, nil)
	ch := f.child(nil)
	f.mu.Lock()
	ch.fn = fn
	f.mu.Unlock()
}

// Histogram registers (or returns) an unlabeled histogram. A nil or empty
// buckets slice selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []time.Duration) *Histogram {
	return r.family(name, help, kindHistogram, nil, buckets).child(nil).hist
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, kindCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on first
// use. Callers on hot paths should cache the returned *Counter.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values).ctr
}

// GaugeFuncVec is a family of scrape-time computed gauges keyed by label
// values.
type GaugeFuncVec struct{ f *family }

// GaugeFuncVec registers (or returns) a labeled gauge-func family.
func (r *Registry) GaugeFuncVec(name, help string, labels ...string) *GaugeFuncVec {
	return &GaugeFuncVec{f: r.family(name, help, kindGaugeFunc, labels, nil)}
}

// With installs fn as the value function for the given label values.
func (v *GaugeFuncVec) With(fn func() float64, values ...string) {
	ch := v.f.child(values)
	v.f.mu.Lock()
	ch.fn = fn
	v.f.mu.Unlock()
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labeled histogram family. A nil or
// empty buckets slice selects DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []time.Duration, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, kindHistogram, labels, buckets)}
}

// With returns the histogram for the given label values, creating it on
// first use. Callers on hot paths should cache the returned *Histogram. On a
// nil receiver it returns the nil (inert) histogram.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(values).hist
}

// WritePrometheus renders every family in Prometheus text exposition format
// (version 0.0.4), families sorted by name and children by label values.
// Durations are exposed in seconds, per Prometheus convention. includeAdmin
// is ignored: every family is served to every scraper.
func (r *Registry) WritePrometheus(w io.Writer, includeAdmin bool) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.render(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)

	f.mu.RLock()
	children := make([]*child, 0, len(f.children))
	for _, ch := range f.children {
		children = append(children, ch)
	}
	f.mu.RUnlock()
	sort.Slice(children, func(i, j int) bool {
		return strings.Join(children[i].values, childKeySep) < strings.Join(children[j].values, childKeySep)
	})

	for _, ch := range children {
		switch f.kind {
		case kindCounter:
			b.WriteString(f.name)
			writeLabels(b, f.labels, ch.values, "", "")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(ch.ctr.Value(), 10))
			b.WriteByte('\n')
		case kindGauge:
			b.WriteString(f.name)
			writeLabels(b, f.labels, ch.values, "", "")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(ch.gauge.Value(), 10))
			b.WriteByte('\n')
		case kindGaugeFunc:
			var v float64
			if ch.fn != nil {
				v = ch.fn()
			}
			b.WriteString(f.name)
			writeLabels(b, f.labels, ch.values, "", "")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			b.WriteByte('\n')
		case kindHistogram:
			renderHistogram(b, f, ch)
		}
	}
}

func renderHistogram(b *strings.Builder, f *family, ch *child) {
	h := ch.hist
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		b.WriteString(f.name)
		b.WriteString("_bucket")
		writeLabels(b, f.labels, ch.values, "le", strconv.FormatFloat(bound.Seconds(), 'g', -1, 64))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(cum, 10))
		b.WriteByte('\n')
	}
	cum += h.counts[len(h.bounds)].Load()
	b.WriteString(f.name)
	b.WriteString("_bucket")
	writeLabels(b, f.labels, ch.values, "le", "+Inf")
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(cum, 10))
	b.WriteByte('\n')

	b.WriteString(f.name)
	b.WriteString("_sum")
	writeLabels(b, f.labels, ch.values, "", "")
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(h.Sum().Seconds(), 'g', -1, 64))
	b.WriteByte('\n')

	b.WriteString(f.name)
	b.WriteString("_count")
	writeLabels(b, f.labels, ch.values, "", "")
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(h.Count(), 10))
	b.WriteByte('\n')
}

// writeLabels renders `{a="x",b="y"}` (nothing when there are no labels),
// appending the extra pair — used for histogram `le` — last.
func writeLabels(b *strings.Builder, names, values []string, extraName, extraValue string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	return labelEscaper.Replace(s)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	return helpEscaper.Replace(s)
}
