package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/workload"
)

// sample is one completed request.
type sample struct {
	kind opKind
	due  time.Duration // when its client was free to send it, from the start of the timed part
	at   time.Duration // when it was sent
	ms   float64       // latency, send to the last byte of the reply
	ok   bool          // completed and passed its output check
}

// runStats is what one load phase observed.
type runStats struct {
	samples    []sample      // timed samples; a followed search contributes two
	elapsed    time.Duration // the timed part
	marks      []mark        // clock readings at each window edge
	level      float64       // the percentile p99_ms reports; 0 where no tail is reported
	attempted  int           // requests sent, warm-up included
	writes     int           // requests that were acknowledged records, warm-up included
	failed     int           // requests that errored or failed their output check
	acked      int           // records the server acknowledged, warm-up included
	timedAcked int           // records acknowledged inside the timed part
	firstErr   error
}

// windows is how many equal slices of time a load phase's timed part is
// planned to be cut into (a phase that runs long gets more). Every latency,
// rate and cost is computed per window and reported as the median over
// windows: on a shared two-core VM a busy neighbour, a slow fsync or a GC
// cycle takes a fraction of a second at a time, and a median over windows
// lets it own a window instead of moving the run's number.
const windows = 18

// mark is one reading of the clocks at a window edge.
type mark struct {
	at    time.Duration // since the start of the timed part
	cpu   time.Duration // this process, user+system
	steal time.Duration // the whole guest, stolen by the host
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime reads the guest's cumulative stolen time — CPU the host gave to
// someone else while this guest wanted it: the eighth value of /proc/stat's
// cpu line, in ticks of 10 ms; zero where it cannot be read. It is reported
// beside the metrics so a reader can tell a disturbed run from a quiet one.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(fields[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

// marker reads the clocks at every window edge of a timed part, on a
// goroutine of its own, until finish is called.
type marker struct {
	stop  chan struct{}
	marks chan []mark
}

// startMarker begins marking at from, every tick.
func startMarker(from time.Time, tick time.Duration) *marker {
	m := &marker{stop: make(chan struct{}), marks: make(chan []mark, 1)}
	go func() {
		var marks []mark
		read := func() {
			marks = append(marks, mark{at: time.Since(from), cpu: cpuTime(), steal: stealTime()})
		}
		for w := 0; ; w++ {
			select {
			case <-m.stop:
				read() // the last, possibly short, window ends where the run did
				m.marks <- marks
				return
			case <-time.After(time.Until(from.Add(tick * time.Duration(w)))):
				read()
			}
		}
	}()
	return m
}

// finish stops the marker and returns its readings; a nil marker (a phase
// that never reached its timed part) has none.
func (m *marker) finish() []mark {
	if m == nil {
		return nil
	}
	close(m.stop)
	return <-m.marks
}

func latencies(samples []sample, kinds ...opKind) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if !s.ok {
			continue
		}
		if len(kinds) == 0 {
			out = append(out, s.ms)
		}
		for _, k := range kinds {
			if s.kind == k {
				out = append(out, s.ms)
			}
		}
	}
	return out
}

func (rs *runStats) byKind(kinds ...opKind) []float64 { return latencies(rs.samples, kinds...) }

// mixP50 is a headline median: the median latency of each op kind, weighted
// by the kind's share of the mix. A pooled median would sit wherever the mix
// happens to straddle two modes; this moves when any kind moves, in
// proportion to the traffic it carries.
func mixP50(samples []sample, mix []mixEntry) float64 {
	var sum, weight float64
	for _, m := range mix {
		if lat := latencies(samples, m.kind); len(lat) > 0 {
			sum += float64(m.weight) * median(lat)
			weight += float64(m.weight)
		}
	}
	return ratio(sum, weight)
}

// measured is what a load phase reports: medians over its windows.
type measured struct {
	p50        float64 // mix-weighted median latency, ms
	tail       float64 // latency at the phase's tail level, ms
	opsPerSec  float64
	cpuMsPerOp float64
	windows    int     // full windows the medians are over
	spread     float64 // interquartile range of the windows' p50s over their median
	stolen     float64 // share of the phase's CPU capacity the host stole
}

// tailLevel is the percentile p99_ms reports for windows planned to hold
// perWindow samples: the highest of p99, p95 and p90 that keeps minBeyond
// samples beyond it in a window (then the upper quartile and the median, for
// windows as small as a smoke run's). It depends on the arguments alone, so a
// workload reports the same statistic on every run and on both sides of a
// comparison.
func tailLevel(perWindow int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75} {
		if perWindow-nearestRank(perWindow, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// measure cuts the timed samples into the windows the marker recorded and
// takes the median over windows of each statistic. A short last window is
// dropped.
func (rs *runStats) measure(mix []mixEntry) measured {
	n := len(rs.marks) - 1
	if n < 1 {
		return measured{}
	}
	if n > 1 && rs.marks[n].at-rs.marks[n-1].at < (rs.marks[1].at-rs.marks[0].at)/2 {
		n--
	}
	byWindow := make([][]sample, n)
	for _, s := range rs.samples {
		// The window whose edges enclose the sample's send time.
		if w := sort.Search(n, func(w int) bool { return rs.marks[w+1].at > s.at }); w < n {
			byWindow[w] = append(byWindow[w], s)
		}
	}
	m := measured{windows: n}
	var p50s, tails, rates, cpus []float64
	for w, win := range byWindow {
		if len(win) == 0 {
			continue
		}
		length := rs.marks[w+1].at - rs.marks[w].at
		p50s = append(p50s, mixP50(win, mix))
		if rs.level > 0 {
			tails = append(tails, percentile(latencies(win), rs.level))
		}
		rates = append(rates, float64(len(win))/length.Seconds())
		cpu := rs.marks[w+1].cpu - rs.marks[w].cpu
		cpus = append(cpus, float64(cpu)/float64(time.Millisecond)/float64(len(win)))
	}
	m.p50, m.tail, m.opsPerSec, m.cpuMsPerOp = median(p50s), median(tails), median(rates), median(cpus)
	if len(p50s) >= 2 {
		q1, _, q3 := quartiles(p50s)
		m.spread = ratio(q3-q1, m.p50)
	}
	last := rs.marks[len(rs.marks)-1]
	m.stolen = ratio(float64(last.steal-rs.marks[0].steal), float64(last.at)*float64(nproc))
	return m
}

// lateP99 is how late the generator ran: the 99th percentile, in ms, of the
// time between an op falling due and its being sent. In a closed loop an op
// falls due when its client's previous reply is in, so this is the
// generator's own work between two requests; it has to stay far below the
// latencies it sits beside.
func (rs *runStats) lateP99() float64 {
	late := make([]float64, 0, len(rs.samples))
	for _, s := range rs.samples {
		if s.kind != opPage2 { // a followed search is one op
			late = append(late, float64(s.at-s.due)/float64(time.Millisecond))
		}
	}
	return percentile(late, 0.99)
}

// maxBacklog is the most ops that were due and not yet sent at one moment.
// A closed loop cannot queue more than one per client.
func (rs *runStats) maxBacklog() int {
	type edge struct {
		at    time.Duration
		delta int
	}
	edges := make([]edge, 0, 2*len(rs.samples))
	for _, s := range rs.samples {
		if s.kind != opPage2 {
			edges = append(edges, edge{s.due, +1}, edge{s.at, -1})
		}
	}
	// At equal times the send comes first: an op sent the instant another
	// falls due does not overlap it.
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return edges[a].delta < edges[b].delta
	})
	backlog, most := 0, 0
	for _, e := range edges {
		backlog += e.delta
		most = max(most, backlog)
	}
	return most
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// execute sends one op through internal/client and checks what came back.
// It returns the records acknowledged and, for a followed search, how long
// the second page took.
func (st *stack) execute(ctx context.Context, o *op) (acked int, page2 float64, err error) {
	group := groupOf(st.spec, o.user)
	c := st.client.As(workload.UserName(o.user), group)
	switch o.kind {
	case opSubmit:
		resp, err := c.Submit(ctx, o.text, client.Group(group), client.Visibility("group"))
		if err != nil {
			return 0, 0, err
		}
		if resp.QueryID <= 0 || resp.ExecError != "" {
			return 0, 0, fmt.Errorf("submit %q: id %d, exec error %q", o.text, resp.QueryID, resp.ExecError)
		}
		return 1, 0, nil
	case opBatch:
		qs := make([]server.SubmitParams, len(o.batch))
		for i, s := range o.batch {
			qs[i] = server.SubmitParams{SQL: s, Group: group, Visibility: "group"}
		}
		resp, err := c.SubmitBatch(ctx, qs)
		if err != nil {
			return 0, 0, err
		}
		if len(resp.Results) != len(qs) {
			return 0, 0, fmt.Errorf("batch: %d results for %d statements", len(resp.Results), len(qs))
		}
		for i, r := range resp.Results {
			if r.Result == nil || r.Result.QueryID <= 0 || r.Result.ExecError != "" {
				return 0, 0, fmt.Errorf("batch statement %d (%q) not logged cleanly", i, o.batch[i])
			}
		}
		return len(qs), 0, nil
	case opKeyword, opSubstring:
		it := c.SearchKeyword(ctx, o.text)
		if o.kind == opSubstring {
			it = c.SearchSubstring(ctx, o.text)
		}
		seen := map[int64]bool{}
		n := 0
		for n < pageSize && it.Next() {
			m := it.Item()
			if !strings.Contains(strings.ToLower(m.Query.Text), o.text) {
				return 0, 0, fmt.Errorf("%s %q returned %q, which does not contain it", o.kind, o.text, m.Query.Text)
			}
			seen[m.Query.ID] = true
			n++
		}
		if err := it.Err(); err != nil {
			return 0, 0, err
		}
		if !o.page2 || n < pageSize {
			return 0, 0, nil
		}
		start := time.Now()
		for n < 2*pageSize && it.Next() {
			if id := it.Item().Query.ID; seen[id] {
				return 0, 0, fmt.Errorf("keyword %q: page 2 repeats query %d of page 1", o.text, id)
			}
			n++
		}
		return 0, msSince(start), it.Err()
	case opComplete:
		_, err := c.Complete(ctx, o.text, 5)
		return 0, 0, err
	case opStats:
		resp, err := c.Stats(ctx)
		if err != nil {
			return 0, 0, err
		}
		if resp.Queries < st.preloaded {
			return 0, 0, fmt.Errorf("stats: %d queries, fewer than the %d preloaded", resp.Queries, st.preloaded)
		}
		return 0, 0, nil
	case opHistory:
		it := c.History(ctx, o.text)
		for n := 0; n < pageSize && it.Next(); n++ {
			if u := it.Item().Query.User; u != o.text {
				return 0, 0, fmt.Errorf("history of %s returned a query of %s", o.text, u)
			}
		}
		return 0, 0, it.Err()
	}
	return 0, 0, fmt.Errorf("unknown op kind %d", o.kind)
}

// collector accumulates what the workers observe.
type collector struct {
	mu sync.Mutex
	rs runStats
}

// note records one finished op and, when it was timed, its samples.
func (c *collector) note(acked int, err error, timed ...sample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rs.attempted++
	c.rs.acked += acked
	if acked > 0 {
		c.rs.writes++
	}
	if len(timed) > 0 {
		c.rs.timedAcked += acked
		c.rs.samples = append(c.rs.samples, timed...)
	}
	if err != nil {
		c.rs.failed++
		if c.rs.firstErr == nil {
			c.rs.firstErr = err
		}
	}
}

func opContext(o *op, traced bool) context.Context {
	if !traced {
		return context.Background()
	}
	return withOpTrace(context.Background(), &opTrace{kind: o.kind})
}

// runClosed drives a closed loop through the op stream once: nproc clients,
// each sending its next op as soon as the previous reply is in. The work is
// a fixed count, so two commits do the same work and differ in how long they
// take; expect is how long that should be, and sizes the windows. The first
// warm ops are sent but not timed. traced marks requests for the tracing
// transport.
func runClosed(st *stack, ops []op, warm int, expect time.Duration, traced bool) *runStats {
	var (
		col        collector
		next       atomic.Int64
		wg         sync.WaitGroup
		begin      sync.Once
		marks      *marker
		timedStart time.Time
	)
	if warm >= len(ops) {
		warm = 0
	}
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Now() // when this client's previous reply was in: its next op is due
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				if i >= warm {
					// Whichever client gets there first starts the timed
					// part (warm-up ops still in flight on the others finish
					// inside the first window); Once orders the rest after it.
					begin.Do(func() {
						timedStart = time.Now()
						marks = startMarker(timedStart, expect/windows)
					})
				}
				o := &ops[i]
				ctx := opContext(o, traced)
				sent := time.Now()
				acked, page2, err := st.execute(ctx, o)
				due := free
				free = time.Now()
				if i < warm {
					col.note(acked, err)
					continue
				}
				s := sample{kind: o.kind, due: due.Sub(timedStart), at: sent.Sub(timedStart),
					ms: float64(free.Sub(sent))/float64(time.Millisecond) - page2, ok: err == nil}
				if page2 > 0 {
					col.note(acked, err, s, sample{kind: opPage2, at: s.at, ms: page2, ok: err == nil})
				} else {
					col.note(acked, err, s)
				}
			}
		}()
	}
	wg.Wait()
	rs := &col.rs
	rs.marks = marks.finish()
	rs.elapsed = rs.marks[len(rs.marks)-1].at
	rs.level = tailLevel((len(ops) - warm) / windows)
	return rs
}
