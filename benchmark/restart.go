package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wal"
)

// buildRestartDir is restart_catchup's set-up: a data directory holding a
// snapshot (with derived-state sidecars) of the first snapshotAt records and
// a WAL tail of the rest, closed cleanly.
func buildRestartDir(spec *workloadSpec, dir string, preload []op, seed int64) error {
	eng, err := newEngine(spec)
	if err != nil {
		return err
	}
	c, err := core.OpenWithEngine(eng, coreConfig(spec, dir))
	if err != nil {
		return err
	}
	if err := preloadRecords(c, spec, preload[:spec.snapshotAt], 0, seed); err != nil {
		c.Close()
		return err
	}
	if _, _, _, err := c.Durability().Compact(); err != nil {
		c.Close()
		return fmt.Errorf("snapshotting the restart directory: %w", err)
	}
	if err := preloadRecords(c, spec, preload[spec.snapshotAt:], spec.snapshotAt, seed); err != nil {
		c.Close()
		return err
	}
	return c.Close()
}

func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue // a data directory is flat
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// statsItems is the stats document's listing cap (the server's maxStatsItems).
const statsItems = 20

// statsDoc is the content of the stats document as GET /v1/stats serves it
// to an administrator: the counts, and the head of each listing. A follower
// must reproduce it exactly from the replicated log. (Past the head the
// bounded top-K summaries may legitimately keep different tied items.)
func statsDoc(c *core.CQMS) string {
	admin := storage.Principal{Admin: true}
	t := c.StatsTracker()
	tables, users := t.TableCounts(admin), t.UserActivity(admin)
	doc, _ := json.Marshal(map[string]any{
		"queries":    c.Store().Count(),
		"visible":    t.QueryCount(admin),
		"tables":     tables[:min(len(tables), statsItems)],
		"users":      users[:min(len(users), statsItems)],
		"predicates": t.TopPredicates(admin, statsItems),
		"sessions":   c.SessionCount(),
	})
	return string(doc)
}

// cycleTimes is one restart cycle's three steps, in seconds.
type cycleTimes struct{ recover, catchup, snapshot float64 }

func (ct cycleTimes) totalMs() float64 { return (ct.recover + ct.catchup + ct.snapshot) * 1000 }

// restartCycle runs one cycle on a private copy of the pristine directory,
// so every cycle starts from the same bytes: recover the primary, bootstrap
// a fresh follower from it over loopback until it has applied everything,
// then compact. peakHeap, when non-nil, receives the highest heap-object
// footprint sampled while the snapshot was being written.
func restartCycle(spec *workloadSpec, pristine string, records int, tr *tracer, peakHeap *float64) (ct cycleTimes, err error) {
	work, err := tempDir("cycle-")
	if err != nil {
		return ct, err
	}
	defer os.RemoveAll(work)
	if err := copyDir(pristine, work); err != nil {
		return ct, err
	}
	span := func(layer, name string, fn func()) float64 {
		if tr != nil {
			return tr.timed(layer, name, fn).Seconds()
		}
		start := time.Now()
		fn()
		return time.Since(start).Seconds()
	}

	eng, err := newEngine(spec)
	if err != nil {
		return ct, err
	}
	var c *core.CQMS
	ct.recover = span("core", "recover", func() { c, err = core.OpenWithEngine(eng, coreConfig(spec, work)) })
	if err != nil {
		return ct, fmt.Errorf("recovering: %w", err)
	}
	st := &stack{spec: spec, core: c, preloaded: records}
	if err := st.serve(nil); err != nil {
		c.Close()
		return ct, err
	}
	defer func() {
		if serr := st.stop(); err == nil && serr != nil {
			err = fmt.Errorf("stopping the recovered primary: %w", serr)
		}
	}()
	// Acked means durable: everything preloaded and acknowledged before the
	// clean Close must be back.
	if got := c.Store().Count(); got != records {
		return ct, fmt.Errorf("recovered %d records, want the %d acknowledged before Close", got, records)
	}
	if rec := c.Recovery(); rec == nil || rec.Replayed != records-spec.snapshotAt {
		return ct, fmt.Errorf("recovery %+v did not replay the %d-record tail", rec, records-spec.snapshotAt)
	}

	feng, err := newEngine(spec)
	if err != nil {
		return ct, err
	}
	ftr := &http.Transport{}
	defer ftr.CloseIdleConnections()
	src := client.New(st.url, client.WithAdmin(),
		client.WithHTTPClient(&http.Client{Transport: ftr, Timeout: time.Minute}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // stops the follower's apply loop
	var f *core.CQMS
	target := c.Durability().LastSeq()
	ct.catchup = span("core", "catchup", func() {
		if f, err = core.OpenFollower(feng, core.DefaultConfig(), src); err != nil {
			return
		}
		if err = f.StartFollower(ctx); err != nil {
			return
		}
		deadline := time.Now().Add(time.Minute)
		for f.ReplicationStatus().AppliedSeq < target {
			if time.Now().After(deadline) {
				err = fmt.Errorf("follower stuck at seq %d of %d: %s",
					f.ReplicationStatus().AppliedSeq, target, f.ReplicationStatus().LastError)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	})
	if err != nil {
		return ct, fmt.Errorf("follower catch-up: %w", err)
	}
	if got, want := statsDoc(f), statsDoc(c); got != want {
		return ct, fmt.Errorf("follower's stats document (%d bytes) differs from the primary's (%d bytes)", len(got), len(want))
	}
	cancel()

	stopSampling := func() {}
	if peakHeap != nil {
		stopSampling = sampleHeap(peakHeap)
	}
	ct.snapshot = span("wal", "snapshot", func() { _, _, _, err = c.Durability().Compact() })
	stopSampling()
	if err != nil {
		return ct, fmt.Errorf("compacting: %w", err)
	}
	return ct, nil
}

// sampleHeap polls the heap-object footprint every 2 ms until the returned
// stop function is called, keeping the maximum (in MB) in *peak.
func sampleHeap(peak *float64) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				*peak = max(*peak, float64(s[0].Value.Uint64())/(1<<20))
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(done); <-finished }
}

// runCycles repeats restart cycles for the run length on each of `workers`
// goroutines: one untimed cycle each, then timed ones until another would
// overrun (and at least two each). The measured run uses nproc workers for
// the reason the serving loops are closed: one restart pipeline is mostly
// one goroutine at a time, the idle vCPU halts, and on a shared host every
// wake-up then waits to be scheduled — cycles of one binary ran 0.9 to 1.4 s.
// Each timed cycle is one sample.
func runCycles(spec *workloadSpec, pristine string, records int, seconds float64, workers int, tr *tracer, peakHeap *float64) (*runStats, []cycleTimes, error) {
	var (
		mu       sync.Mutex
		rs       = &runStats{}
		cycles   []cycleTimes
		firstErr error
		wg       sync.WaitGroup
	)
	begin := time.Now()
	timedStart := begin
	deadline := begin.Add(time.Duration(seconds * float64(time.Second)))
	var cpuStart, stealStart time.Duration
	var startOnce sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var est time.Duration
			for own := 0; ; own++ {
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				// own counts this worker's cycles, the untimed first included.
				if stop || (own > 2 && time.Now().Add(est).After(deadline)) {
					return
				}
				if own == 1 {
					startOnce.Do(func() { timedStart, cpuStart, stealStart = time.Now(), cpuTime(), stealTime() })
				}
				started := time.Now()
				ct, err := restartCycle(spec, pristine, records, tr, peakHeap)
				mu.Lock()
				rs.attempted++
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil && own > 0 {
					cycles = append(cycles, ct)
					rs.samples = append(rs.samples, sample{at: started.Sub(timedStart), ms: ct.totalMs(), ok: true})
				}
				mu.Unlock()
				est = time.Since(started)
			}
		}()
	}
	wg.Wait()
	// The whole timed part is one window: a cycle is longer than the bursts
	// windows exist to isolate.
	rs.elapsed = time.Since(timedStart)
	rs.marks = []mark{{cpu: cpuStart, steal: stealStart}, {at: rs.elapsed, cpu: cpuTime(), steal: stealTime()}}
	return rs, cycles, firstErr
}

func column(cycles []cycleTimes, f func(cycleTimes) float64) []float64 {
	out := make([]float64, len(cycles))
	for i, c := range cycles {
		out[i] = f(c)
	}
	return out
}

// measureRestart is restart_catchup's --trace 0 run. One op is one full
// restart cycle.
func measureRestart(spec *workloadSpec, seed int64, seconds float64) (*report, error) {
	in := generate(spec, seed, seconds)
	_, dir, setup, err := setUp(
		func(dir string) (struct{}, error) { return struct{}{}, buildRestartDir(spec, dir, in.preload, seed) },
		func(struct{}) error { return nil })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{}}
	rs, cycles, err := runCycles(spec, dir, len(in.preload), seconds, nproc, nil, nil)
	rep.attempted = rs.attempted
	if err != nil {
		rep.failed = 1
		rep.problemf("%v", err)
		return rep, nil
	}
	// One op per cycle; the kind is submit only because a sample must have
	// one.
	q := rs.measure([]mixEntry{{opSubmit, 1}})
	m := rep.metrics
	m["setup_s"] = setup.cpu
	m["p50_ms"] = q.p50
	m["cpu_ms_per_op"] = q.cpuMsPerOp
	m["peak_rss_mb"] = peakRSSMB()
	m["disk_bytes_per_record"] = ratio(float64(disk), float64(len(in.preload)))
	rep.notef("inputs %s: %d records (%d in the snapshot, %d in the tail); %d timed cycles over %.2f s; a set-up took %.2f s on the clock",
		in.digest, len(in.preload), spec.snapshotAt, len(in.preload)-spec.snapshotAt, len(cycles), rs.elapsed.Seconds(), setup.wall)
	rep.notef("one op is a full cycle (recover + follower catch-up + compact), %d at a time; not gated: %.2f cycles/s", nproc, q.opsPerSec)
	rep.notef("the host stole %.1f %% of the CPU", q.stolen*100)
	rep.notef("medians: recover %.4f s, catch-up %.4f s, snapshot %.4f s",
		median(column(cycles, func(c cycleTimes) float64 { return c.recover })),
		median(column(cycles, func(c cycleTimes) float64 { return c.catchup })),
		median(column(cycles, func(c cycleTimes) float64 { return c.snapshot })))
	return rep, nil
}

// traceRestart is restart_catchup's --trace 1 run: cycles with spans for
// half the run length, then the codec and restore paths timed on their own.
func traceRestart(spec *workloadSpec, seed int64, seconds float64) (*report, error) {
	in := generate(spec, seed, seconds)
	dir, err := tempDir("data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := buildRestartDir(spec, dir, in.preload, seed); err != nil {
		return nil, err
	}
	records := len(in.preload)
	tr := newTracer(spec.name)
	rep := &report{metrics: map[string]float64{}}
	m := rep.metrics
	for _, d := range tracedMetrics() {
		m[d.name] = 0
	}

	rtBefore := readRuntime()
	var peakHeap float64
	rs, cycles, err := runCycles(spec, dir, records, seconds/2, 1, tr, &peakHeap)
	rep.attempted = rs.attempted
	if err != nil {
		rep.failed = 1
		rep.problemf("%v", err)
		return rep, nil
	}
	for k, v := range runtimeDelta(rtBefore, readRuntime(), len(cycles)) {
		m[k] = v
	}
	m["recover_s"] = median(column(cycles, func(c cycleTimes) float64 { return c.recover }))
	m["catchup_s"] = median(column(cycles, func(c cycleTimes) float64 { return c.catchup }))
	m["snapshot_s"] = median(column(cycles, func(c cycleTimes) float64 { return c.snapshot }))
	m["wal.snapshot_peak_heap_mb"] = peakHeap
	// No p99_ms: two dozen cycles pin down no tail.
	q := rs.measure([]mixEntry{{opSubmit, 1}})
	m["ops_s"] = q.opsPerSec
	m["loadgen.stolen_frac"] = q.stolen

	if err := probeRestart(spec, dir, records, tr, m); err != nil {
		return nil, err
	}
	path := filepath.Join(scratch, "trace-"+spec.name+".jsonl")
	written, err := tr.writeJSONL(path)
	if err != nil {
		return nil, err
	}
	rep.notef("inputs %s; %d cycles; %d spans written to %s", in.digest, len(cycles), written, path)
	return rep, nil
}

// probeRestart times the pieces a restart is made of: the mutation codec,
// tail replay (ReadFrames + decode + Apply) onto a store restored from the
// snapshot, and a snapshot-only restore.
func probeRestart(spec *workloadSpec, pristine string, records int, tr *tracer, m map[string]float64) error {
	work, err := tempDir("probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	if err := copyDir(pristine, work); err != nil {
		return err
	}
	eng, err := newEngine(spec)
	if err != nil {
		return err
	}
	before := liveHeap()
	c, err := core.OpenWithEngine(eng, coreConfig(spec, work))
	if err != nil {
		return err
	}
	defer c.Close()
	m["storage.heap_bytes_per_record"] = float64(liveHeap()-before) / float64(records)
	m["storage.scan_us_per_krecord"] = probeScan(c.Store(), tr)

	// The tail as the replication stream carries it.
	snapSeq := c.Durability().SnapshotSeq()
	var frames bytes.Buffer
	if _, _, err := c.Durability().ReadTail(snapSeq, 1<<40, &frames); err != nil {
		return fmt.Errorf("reading the WAL tail: %w", err)
	}
	var payloads [][]byte
	if err := wal.ReadFrames(bytes.NewReader(frames.Bytes()), func(_ uint64, p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	}); err != nil {
		return err
	}
	var encode, decode []float64
	for _, p := range payloads {
		var mu *storage.Mutation
		decode = append(decode, us(tr.timed("wal", "decode", func() { mu, err = storage.DecodeMutation(p) })))
		if err != nil {
			return err
		}
		encode = append(encode, us(tr.timed("wal", "encode", func() { _, _ = mu.Encode() })))
	}
	m["wal.decode_us"] = median(decode)
	m["wal.encode_us"] = median(encode)
	m["wal.bytes_per_record"] = ratio(float64(frames.Len()), float64(len(payloads)))

	// Snapshot-only restore: the same directory without its segments.
	snapOnly, err := tempDir("probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(snapOnly)
	entries, err := os.ReadDir(pristine)
	if err != nil {
		return err
	}
	var snapBytes int64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		if err := copyFile(filepath.Join(pristine, e.Name()), filepath.Join(snapOnly, e.Name())); err != nil {
			return err
		}
		if info, err := e.Info(); err == nil {
			snapBytes += info.Size()
		}
	}
	m["wal.snapshot_bytes_per_record"] = ratio(float64(snapBytes), float64(spec.snapshotAt))
	eng2, err := newEngine(spec)
	if err != nil {
		return err
	}
	var restored *core.CQMS
	d := tr.timed("wal", "restore", func() { restored, err = core.OpenWithEngine(eng2, coreConfig(spec, snapOnly)) })
	if err != nil {
		return fmt.Errorf("snapshot-only restore: %w", err)
	}
	defer restored.Close()
	if got := restored.Store().Count(); got != spec.snapshotAt {
		return fmt.Errorf("snapshot-only restore holds %d records, want %d", got, spec.snapshotAt)
	}
	m["wal.restore_us_per_record"] = ratio(us(d), float64(spec.snapshotAt))

	// Tail replay onto the restored store, as a follower applies it.
	restored.Store().SetReadOnly(false)
	d = tr.timed("wal", "replay", func() {
		err = wal.ReadFrames(bytes.NewReader(frames.Bytes()), func(_ uint64, p []byte) error {
			mu, derr := storage.DecodeMutation(p)
			if derr != nil {
				return derr
			}
			return restored.Store().Apply(mu)
		})
	})
	if err != nil {
		return fmt.Errorf("replaying the tail: %w", err)
	}
	if got := restored.Store().Count(); got != records {
		return fmt.Errorf("replay left %d records, want %d", got, records)
	}
	m["wal.replay_us_per_record"] = ratio(us(d), float64(len(payloads)))
	return nil
}
