package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/core"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median, and the last set-up is the one the run uses. Five, because one
// set-up in three lands in a busy second of the host often enough to move a
// median of three.
const setupReps = 5

// warmFrac is the share of every load phase that is sent but not timed:
// caches fill, the HTTP connections open, the heap reaches its working size.
const warmFrac = 10

// inputs is everything generated from the seed for one run.
type inputs struct {
	preload []op
	ops     []op
	digest  string
}

// generate draws a run's inputs. seconds sets the size of the op stream, so
// the same arguments always mean the same work.
func generate(spec *workloadSpec, seed int64, seconds float64) inputs {
	g := newGenerator(spec, seed)
	in := inputs{preload: g.preload(spec.preload)}
	in.ops = g.stream(int(math.Round(spec.rate * seconds)))
	in.digest = digest(in.preload, in.ops)
	return in
}

// load runs the ops as one load phase; seconds is how long that is expected
// to take.
func load(st *stack, ops []op, seconds float64, traced bool) *runStats {
	timed := time.Duration(seconds * float64(time.Second) * (warmFrac - 1) / warmFrac)
	return runClosed(st, ops, len(ops)/warmFrac, timed, traced)
}

// report is what one run of one workload produced.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // output checks that did not hold; any makes the run incorrect
	notes     []string // printed above the result line
}

func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setupTimes is what one set-up cost: the medians over the repetitions.
type setupTimes struct {
	cpu  float64 // setup_s: processor seconds, user + system, every thread
	wall float64 // seconds on the clock, for the notes
}

// setUp runs the set-up fn setupReps times in fresh directories, tearing
// all but the last down, and returns the last result, its directory and the
// median cost.
//
// setup_s is processor time, not time on the clock. Set-up writes the whole
// preloaded log through the WAL, and on this box the clock time of that
// follows the host's disk: the same set-up took 1.2 s on a quiet disk and 1.5
// to 3.7 s beside one process calling fsync, at an unchanged 1.5 s of CPU;
// ten runs of one binary spread the clock time by 71 %. Work moved into
// set-up — the reason the metric exists — is processor time wherever it runs,
// a background goroutine included.
func setUp[T any](up func(dir string) (T, error), down func(T) error) (T, string, setupTimes, error) {
	var zero T
	var cpu, wall []float64
	for rep := 1; ; rep++ {
		dir, err := tempDir("data-")
		if err != nil {
			return zero, "", setupTimes{}, err
		}
		start, cpuStart := time.Now(), cpuTime()
		made, err := up(dir)
		cpu = append(cpu, (cpuTime() - cpuStart).Seconds())
		wall = append(wall, time.Since(start).Seconds())
		if err == nil && rep == setupReps {
			// Start the run from a collected heap: where its first GC cycle
			// lands otherwise depends on the garbage set-up left.
			debug.FreeOSMemory()
			return made, dir, setupTimes{cpu: median(cpu), wall: median(wall)}, nil
		}
		if err == nil {
			err = down(made)
		}
		os.RemoveAll(dir)
		if err != nil {
			return zero, "", setupTimes{}, err
		}
		// Hand the torn-down set-up's heap back before building the next, so
		// repeated set-ups do not stack into the process's peak RSS.
		made = zero
		debug.FreeOSMemory()
	}
}

// measureServing is a serving workload's --trace 0 run: set up, drive the
// load with tracing off for the whole run length, check the outputs.
func measureServing(spec *workloadSpec, seed int64, seconds float64) (*report, error) {
	in := generate(spec, seed, seconds)
	st, dir, setup, err := setUp(
		func(dir string) (*stack, error) { return startStack(spec, dir, in.preload, seed, nil) },
		(*stack).stop)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rs := load(st, in.ops, seconds, false)
	rss := peakRSSMB()
	rep := &report{metrics: map[string]float64{}, attempted: rs.attempted, failed: rs.failed}
	records := st.core.Store().Count()
	checkServing(rep, st, rs)
	if err := st.stop(); err != nil {
		return nil, fmt.Errorf("stopping the stack: %w", err)
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}

	q := rs.measure(spec.mix)
	m := rep.metrics
	m["setup_s"] = setup.cpu
	m["p50_ms"] = q.p50
	m["cpu_ms_per_op"] = q.cpuMsPerOp
	m["peak_rss_mb"] = rss
	m["disk_bytes_per_record"] = ratio(float64(disk), float64(records))

	rep.notef("inputs %s: %d preloaded, %d ops; %d timed over %.2f s; a set-up took %.2f s on the clock",
		in.digest, len(in.preload), len(in.ops), len(rs.samples), rs.elapsed.Seconds(), setup.wall)
	rep.notef("every timing is the median over %d windows of %.2f s; not gated: %.1f ops/s, p%.0f within a window %.4f ms",
		q.windows, rs.elapsed.Seconds()/float64(len(rs.marks)-1), q.opsPerSec, rs.level*100, q.tail)
	rep.notef("the windows' p50s spread %.1f %% (interquartile range over median); the host stole %.1f %% of the CPU; the generator ran %.4f ms late at p99",
		q.spread*100, q.stolen*100, rs.lateP99())
	return rep, nil
}

// checkServing applies the end-of-run output checks: no request failed, and
// the log holds exactly what was preloaded plus what was acknowledged.
func checkServing(rep *report, st *stack, rs *runStats) {
	if rs.failed > 0 {
		rep.problemf("%d of %d requests failed; first: %v", rs.failed, rs.attempted, rs.firstErr)
	}
	if got, want := st.core.Store().Count(), st.preloaded+rs.acked; got != want {
		rep.problemf("store holds %d records, want %d preloaded + %d acknowledged", got, st.preloaded, rs.acked)
	}
	if err := st.core.Durability().Err(); err != nil {
		rep.problemf("durability pipeline broken: %v", err)
	}
}

// traceServing is a serving workload's --trace 1 run. The run length is
// split in equal phases: the head of the schedule untraced (per-op medians,
// runtime and under-the-lock counters at normal speed), the same ops again
// with spans on, direct timed calls into each layer, and — where the workload
// has one — the durable phase.
func traceServing(spec *workloadSpec, seed int64, seconds float64) (*report, error) {
	phases := 3.0
	if spec.durableSync != "" {
		phases = 4
	}
	part := seconds / phases
	in := generate(spec, seed, part)
	dir, err := tempDir("data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer(spec.name)
	st, err := startStack(spec, dir, in.preload, seed, tr)
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{}}
	m := rep.metrics
	for _, d := range tracedMetrics() {
		m[d.name] = 0
	}
	m["storage.heap_bytes_per_record"] = st.heapBytesPerRecord

	// Untraced: what the program does at normal speed.
	promBefore, err := scrape(st.core)
	if err != nil {
		return nil, err
	}
	rtBefore := readRuntime()
	recordsBefore := st.core.Store().Count()
	plain := load(st, in.ops, part, false)
	rtAfter := readRuntime()
	promAfter, err := scrape(st.core)
	if err != nil {
		return nil, err
	}
	acked := plain.acked
	perOpMetrics(m, plain)
	for k, v := range runtimeDelta(rtBefore, rtAfter, plain.attempted) {
		m[k] = v
	}
	lockedMetrics(m, promAfter.sub(promBefore), st.core.Store().Count()-recordsBefore)
	syncMetrics(m, promAfter.sub(promBefore), plain)
	q := plain.measure(spec.mix)
	m["p99_ms"] = q.tail
	m["ops_s"] = q.opsPerSec
	m["loadgen.late_p99_ms"] = plain.lateP99()
	m["loadgen.max_backlog"] = float64(plain.maxBacklog())
	m["loadgen.stolen_frac"] = q.stolen
	m["loadgen.window_spread"] = q.spread

	// Traced: the same ops with spans on.
	tr.on.Store(true)
	traced := load(st, in.ops, part, true)
	tr.on.Store(false)
	acked += traced.acked
	m["trace.overhead_frac"] = ratio(mixP50(traced.samples, spec.mix), mixP50(plain.samples, spec.mix)) - 1

	rep.attempted = plain.attempted + traced.attempted
	rep.failed = plain.failed + traced.failed
	both := &runStats{attempted: rep.attempted, failed: rep.failed, acked: acked, firstErr: plain.firstErr}
	if both.firstErr == nil {
		both.firstErr = traced.firstErr
	}
	checkServing(rep, st, both)

	// Depth probes, then the arithmetic that needs both spans and probes.
	probeLayers(st, tr, in.ops, time.Duration(part*float64(time.Second)), m)
	spanMetrics(m, tr.snapshot())

	if err := st.stop(); err != nil {
		return nil, fmt.Errorf("stopping the stack: %w", err)
	}
	if spec.durableSync != "" {
		if err := durablePhase(spec, in, seed, part, rep); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(scratch, "trace-"+spec.name+".jsonl")
	written, err := tr.writeJSONL(path)
	if err != nil {
		return nil, err
	}
	rep.notef("inputs %s; %d spans written to %s", in.digest, written, path)
	rep.notef("p99_ms is the p%.0f within a window: the highest of p99/p95/p90 that keeps %d samples beyond it in a window of the planned size",
		plain.level*100, minBeyond)
	return rep, nil
}

// durableShare is the share of a phase's ops the durable phase sends: behind
// an fsync the loop runs at a fraction of the rate the op count was sized
// for.
const durableShare = 4

// durablePhase puts fsync and group commit on a request path: a fresh stack
// of the same workload under spec.durableSync takes the head of the ops, the
// program's fsync-path counters over that load replace the ones the untraced
// phase left (there the policy keeps them idle), and acked-means-durable is
// checked the hard way — the data directory is copied as it stands, with the
// log still open and nothing flushed by a Close, and the copy must recover
// every acknowledged record.
func durablePhase(spec *workloadSpec, in inputs, seed int64, seconds float64, rep *report) error {
	durable := *spec
	durable.syncPolicy = spec.durableSync
	dir, err := tempDir("durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := startStack(&durable, dir, in.preload, seed, nil)
	if err != nil {
		return err
	}
	before, err := scrape(st.core)
	if err != nil {
		st.stop()
		return err
	}
	rs := load(st, in.ops[:len(in.ops)/durableShare], seconds, false)
	after, err := scrape(st.core)
	if err != nil {
		st.stop()
		return err
	}
	syncMetrics(rep.metrics, after.sub(before), rs)
	rep.attempted += rs.attempted
	rep.failed += rs.failed
	checkServing(rep, st, rs)
	want := st.core.Store().Count()

	crashed, err := tempDir("crashed-")
	if err == nil {
		defer os.RemoveAll(crashed)
		err = copyDir(dir, crashed)
	}
	if serr := st.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping the durable stack: %w", serr)
	}
	if err != nil {
		return err
	}
	eng, err := newEngine(&durable)
	if err != nil {
		return err
	}
	c, err := core.OpenWithEngine(eng, coreConfig(&durable, crashed))
	if err != nil {
		return fmt.Errorf("recovering the unclosed copy: %w", err)
	}
	if got := c.Store().Count(); got != want {
		rep.problemf("sync=%s: the unclosed log recovered %d records, %d were acknowledged", spec.durableSync, got, want)
	}
	rep.notef("durable phase (sync=%s): %d ops over %.2f s, submit p50 %.4f ms; a copy of the unclosed log recovered %d of %d acknowledged records",
		spec.durableSync, len(rs.samples), rs.elapsed.Seconds(), median(rs.byKind(opSubmit)), c.Store().Count(), want)
	return c.Close()
}

// perOpMetrics fills the per-operation end-to-end metrics from an untraced
// phase.
func perOpMetrics(m map[string]float64, rs *runStats) {
	m["submit_p50_ms"] = median(rs.byKind(opSubmit))
	m["batch_p50_ms"] = median(rs.byKind(opBatch))
	m["search_p50_ms"] = median(rs.byKind(opKeyword, opSubstring))
	m["complete_p50_ms"] = median(rs.byKind(opComplete))
	m["stats_p50_ms"] = median(rs.byKind(opStats))
	m["history_p50_ms"] = median(rs.byKind(opHistory))
	m["ingest_records_s"] = ratio(float64(rs.timedAcked), rs.elapsed.Seconds())
	m["failed_frac"] = ratio(float64(rs.failed), float64(rs.attempted))
}

// lockedMetrics fills the metrics of what runs under the commit lock, from
// the program's own counters over one load phase that logged `records`.
func lockedMetrics(m map[string]float64, d promSample, records int) {
	const bus = "cqms_bus_callback_seconds"
	named := map[string]bool{"stats": true, "sessions": true, "miner-feed": true, "wal": true}
	for sub := range named {
		m["bus."+sub+"_us"] = d.histMeanUs(bus, `{subscriber="`+sub+`"}`)
	}
	var otherSum, otherCount float64
	for _, sub := range d.labelValues(bus+"_count", "subscriber") {
		if !named[sub] {
			otherSum += d[bus+`_sum{subscriber="`+sub+`"}`]
			otherCount += d[bus+`_count{subscriber="`+sub+`"}`]
		}
	}
	m["bus.other_us"] = ratio(otherSum, otherCount) * 1e6
	m["storage.commit_hold_us"] = d.histMeanUs("cqms_store_commit_lock_hold_seconds", "")
	m["wal.bytes_per_record"] = ratio(d["cqms_wal_segment_bytes"], float64(records))
}

// syncMetrics fills the metrics of the WAL committer's fsync path from the
// program's own counters over one load phase.
func syncMetrics(m map[string]float64, d promSample, rs *runStats) {
	m["wal.durable_wait_us"] = d.histMeanUs("cqms_store_durability_wait_seconds", "")
	var fsyncs float64
	for _, policy := range d.labelValues("cqms_wal_fsyncs_total", "policy") {
		fsyncs += d[`cqms_wal_fsyncs_total{policy="`+policy+`"}`]
	}
	m["wal.fsyncs_per_op"] = ratio(fsyncs, float64(rs.writes))
	// Batch sizes are encoded one record per second in this family.
	m["wal.group_records"] = ratio(d["cqms_wal_group_commit_records_sum"], d["cqms_wal_group_commit_records_count"])
}

// spanMetrics fills the client, server and coverage metrics from the traced
// phase's spans and the probes already in m.
func spanMetrics(m map[string]float64, spans []span) {
	self := selfTimes(spans)
	clientSelf := map[string][]float64{}
	serverDur := map[string][]float64{}
	var allClientSelf, bytes []float64
	for i := range spans {
		s := &spans[i]
		switch s.Layer {
		case "client":
			clientSelf[s.Op] = append(clientSelf[s.Op], us(self[s.ID]))
			allClientSelf = append(allClientSelf, us(self[s.ID]))
		case "server":
			serverDur[s.Op] = append(serverDur[s.Op], us(s.dur()))
			bytes = append(bytes, float64(s.Bytes))
		}
	}
	m["client.roundtrip_self_us"] = median(allClientSelf)
	m["server.resp_bytes_per_op"] = mean(bytes)
	search := append(append([]float64(nil), serverDur["keyword"]...), serverDur["substring"]...)
	serverSelf := func(handler []float64, inner float64) float64 {
		if len(handler) == 0 {
			return 0
		}
		return median(handler) - inner
	}
	m["server.submit_self_us"] = serverSelf(serverDur["submit"], m["core.submit_us"])
	m["server.search_self_us"] = serverSelf(search, m["core.search_us"])
	m["server.complete_self_us"] = serverSelf(serverDur["complete"], m["core.complete_us"])
	m["server.stats_self_us"] = serverSelf(serverDur["stats"], m["stats.read_us"])

	// Coverage: do the layers' self times add up to what the user waited?
	if p50 := m["submit_p50_ms"] * 1000; p50 > 0 {
		m["trace.submit_coverage"] = (median(clientSelf["submit"]) + m["server.submit_self_us"] + m["core.submit_us"]) / p50
	}
	if p50 := m["search_p50_ms"] * 1000; p50 > 0 {
		cs := append(append([]float64(nil), clientSelf["keyword"]...), clientSelf["substring"]...)
		m["trace.search_coverage"] = (median(cs) + m["server.search_self_us"] + m["core.search_us"]) / p50
	}
}
