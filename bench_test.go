package cqms

// This file is the cost side of the experiments E1–E9: one benchmark (or
// small group of benchmarks) per experiment. The paper is a vision
// paper without measured tables, so each benchmark regenerates the evidence
// behind one of its qualitative claims (interactive meta-querying, negligible
// profiling overhead, context-aware completion, cheap incremental mining,
// bounded maintenance scans, ...). cmd/cqms-bench prints the corresponding
// quality metrics (precision/recall, accuracy); the benchmarks here measure
// cost.
//
// Run with:
//
//	go test -bench=. -benchmem
import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/maintenance"
	"repro/internal/metaquery"
	"repro/internal/miner"
	"repro/internal/profiler"
	"repro/internal/recommend"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/workload"
)

// fixture is the shared benchmark workload: a populated scientific database
// and a replayed multi-user exploratory trace.
type fixture struct {
	sys     *CQMS
	eng     *engine.Engine
	store   *storage.Store
	trace   *workload.Trace
	mining  *miner.Result
	records []*storage.QueryRecord
}

var (
	fixtureOnce sync.Once
	shared      *fixture
)

// benchFixture builds (once) a CQMS with ~1,200 logged queries from 20 users.
// search returns a reader of one search as the admin, to the end from the
// start; it takes a constructor's result, so the query is built per call as a
// request builds it.
func search(exec *metaquery.Executor) func(metaquery.Query, error) ([]metaquery.Match, error) {
	return func(q metaquery.Query, err error) ([]metaquery.Match, error) {
		if err != nil {
			return nil, err
		}
		page, err := exec.Page(context.Background(), Admin, q, metaquery.Cursor{}, 0)
		return page.Matches, err
	}
}

func benchFixture(b *testing.B) *fixture {
	b.Helper()
	fixtureOnce.Do(func() {
		eng := engine.New()
		if err := workload.Populate(eng, 2000, 1); err != nil {
			panic(fmt.Sprintf("bench fixture: %v", err))
		}
		sys := NewWithEngine(eng, DefaultConfig())
		cfg := workload.DefaultConfig()
		cfg.Users = 20
		cfg.SessionsPerUser = 10
		trace := workload.Generate(cfg)
		prof := profiler.New(eng, sys.Store(), profiler.DefaultConfig())
		if _, err := workload.Replay(trace, prof); err != nil {
			panic(fmt.Sprintf("bench fixture replay: %v", err))
		}
		mining := sys.RunMiner()
		shared = &fixture{
			sys:     sys,
			eng:     eng,
			store:   sys.Store(),
			trace:   trace,
			mining:  mining,
			records: sys.Store().Snapshot().Records(Admin),
		}
	})
	return shared
}

// ---------------------------------------------------------------------------
// E1 — Figure 1: query-by-feature meta-queries
// ---------------------------------------------------------------------------

// figure1MetaQuery is the meta-query of Figure 1 adapted to the synthetic
// trace ("find all queries that correlate water salinity with water
// temperature data").
const figure1MetaQuery = `SELECT Q.qid, Q.qText
	FROM Queries Q, DataSources D1, DataSources D2
	WHERE Q.qid = D1.qid AND Q.qid = D2.qid
	AND D1.relName = 'WaterSalinity' AND D2.relName = 'WaterTemp'`

func BenchmarkE1QueryByFeature(b *testing.B) {
	f := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, matches, err := f.sys.MetaQuery(context.Background(), Admin, figure1MetaQuery)
		if err != nil {
			b.Fatal(err)
		}
		if len(matches) == 0 {
			b.Fatal("meta-query found nothing")
		}
	}
}

// BenchmarkE1RawTextScan is the ablation baseline of the feature relations:
// answering the same information need by substring search over raw query
// text (index-backed since PR 12; the name predates that).
func BenchmarkE1RawTextScan(b *testing.B) {
	f := benchFixture(b)
	read := search(metaquery.New(f.store, f.sys.SessionOf))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := read(metaquery.Substring("WaterSalinity"))
		if err != nil {
			b.Fatal(err)
		}
		bm, err := read(metaquery.Substring("WaterTemp"))
		if err != nil {
			b.Fatal(err)
		}
		if len(a) == 0 || len(bm) == 0 {
			b.Fatal("substring scan found nothing")
		}
	}
}

func BenchmarkE1AutoMetaQuery(b *testing.B) {
	f := benchFixture(b)
	read := search(metaquery.New(f.store, f.sys.SessionOf))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matches, err := read(metaquery.Partial("SELECT FROM WaterSalinity, WaterTemp"))
		if err != nil {
			b.Fatal(err)
		}
		if len(matches) == 0 {
			b.Fatal("auto meta-query found nothing")
		}
	}
}

// ---------------------------------------------------------------------------
// E2 — Figure 2: session detection and rendering
// ---------------------------------------------------------------------------

func BenchmarkE2SessionDetection(b *testing.B) {
	f := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sessions := session.Detect(f.records)
		if len(sessions) == 0 {
			b.Fatal("no sessions detected")
		}
	}
}

func BenchmarkE2SessionRender(b *testing.B) {
	f := benchFixture(b)
	sessions := session.Detect(f.records)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := session.Render(&sessions[i%len(sessions)]); out == "" {
			b.Fatal("empty rendering")
		}
	}
}

// ---------------------------------------------------------------------------
// E3 — Figure 3: assisted interaction
// ---------------------------------------------------------------------------

func BenchmarkE3Completion(b *testing.B) {
	f := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := f.sys.SuggestTables(context.Background(), Admin, "SELECT * FROM WaterSalinity", 5)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) == 0 {
			b.Fatal("no suggestions")
		}
	}
}

// BenchmarkE3CompletionPopularityOnly is the context-aware vs popularity-only
// ablation.
func BenchmarkE3CompletionPopularityOnly(b *testing.B) {
	f := benchFixture(b)
	cfg := recommend.DefaultConfig()
	cfg.ContextAware = false
	rec := recommend.New(f.store, metaquery.New(f.store, f.sys.SessionOf), f.sys.StatsTracker(), f.sys.MinerFeed().Rules, f.eng.Catalog(), cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := rec.SuggestTables(Admin, "SELECT * FROM WaterSalinity", 5)
		if len(got) == 0 {
			b.Fatal("no suggestions")
		}
	}
}

// completionBenchStore builds a store with n logged queries drawn from a
// small vocabulary of tables, attributes, predicates and joins (constants
// varied so the predicate space is realistic), with the incremental stats
// tracker attached.
func completionBenchStore(b *testing.B, n int) (*storage.Store, *stats.Tracker) {
	b.Helper()
	var vocab []*storage.QueryRecord
	for i := 0; i < 10; i++ {
		for _, text := range []string{
			fmt.Sprintf("SELECT temp FROM WaterTemp WHERE temp < %d", 10+i),
			fmt.Sprintf("SELECT WaterTemp.lake, WaterTemp.temp FROM WaterTemp WHERE WaterTemp.temp > %d", i),
			fmt.Sprintf("SELECT WaterSalinity.salinity FROM WaterSalinity WHERE WaterSalinity.depth < %d", i*5),
			fmt.Sprintf("SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x AND WaterTemp.temp < %d", 12+i),
		} {
			rec, err := storage.NewRecordFromSQL(text)
			if err != nil {
				b.Fatal(err)
			}
			rec.User = fmt.Sprintf("user%d", i%7)
			rec.Visibility = storage.Visibility(i % 3)
			vocab = append(vocab, rec)
		}
	}
	store := storage.NewStore()
	tracker := stats.Attach(store)
	for i := 0; i < n; i++ {
		mustPut(b, store, vocab[i%len(vocab)].Clone())
	}
	return store, tracker
}

// BenchmarkE3CompletionIncremental measures steady-state per-keystroke
// completion cost (tables + columns + predicates + joins: one Complete)
// against the incremental stats counters at 1k vs 50k-record logs. The
// per-suggestion cost must stay flat (within noise) as the log grows — that
// is the point of taking the full-log scans out of the recommendation hot
// path.
func BenchmarkE3CompletionIncremental(b *testing.B) {
	for _, n := range []int{1_000, 50_000} {
		b.Run(fmt.Sprintf("complete/log=%d", n), func(b *testing.B) {
			store, tracker := completionBenchStore(b, n)
			noRules := func() []miner.Rule { return nil }
			rec := recommend.New(store, metaquery.New(store, session.AttachLive(store).SessionOf), tracker, noRules, engine.NewCatalog(), recommend.DefaultConfig())
			const partial = "SELECT * FROM WaterSalinity, WaterTemp WHERE "
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var kinds [recommend.CompleteJoin + 1]bool
				for _, c := range rec.Complete(Admin, partial, 5) {
					kinds[c.Kind] = true
				}
				if !kinds[recommend.CompleteColumn] || !kinds[recommend.CompletePredicate] || !kinds[recommend.CompleteJoin] {
					b.Fatal("missing suggestions")
				}
			}
		})
	}
}

func BenchmarkE3SimilarQueries(b *testing.B) {
	f := benchFixture(b)
	probe := "SELECT WaterTemp.lake, WaterTemp.temp FROM WaterTemp WHERE WaterTemp.temp < 15"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := f.sys.SimilarQueries(context.Background(), Admin, probe, 5)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) == 0 {
			b.Fatal("no similar queries")
		}
	}
}

func BenchmarkE3Corrections(b *testing.B) {
	f := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := f.sys.Corrections(context.Background(), Admin, "SELECT tmep FROM WaterTemps WHERE tmep < 18")
		if err != nil {
			b.Fatal(err)
		}
		if len(got) == 0 {
			b.Fatal("no corrections")
		}
	}
}

// ---------------------------------------------------------------------------
// E4 — profiling overhead and meta-query latency
// ---------------------------------------------------------------------------

const e4Query = "SELECT lake, AVG(temp) AS avg_temp FROM WaterTemp WHERE temp < 18 GROUP BY lake ORDER BY avg_temp DESC"

// BenchmarkE4BaselineExecute measures plain DBMS execution without the CQMS.
func BenchmarkE4BaselineExecute(b *testing.B) {
	f := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.sys.ExecuteUnprofiled(e4Query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4ProfilerSubmit measures the same query through the profiler
// (execution + feature extraction + logging + sampling). The difference to
// the baseline is the CQMS overhead that §2.1 requires to be small. Each
// iteration first swaps a table the query does not read (an untimed INSERT
// of no rows), so the profiler's memo misses and the query executes, as E4's
// profiled rounds do.
func BenchmarkE4ProfilerSubmit(b *testing.B) {
	f := benchFixture(b)
	store := storage.NewStore()
	prof := profiler.New(f.eng, store, profiler.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := f.eng.Catalog().Insert("Sensors", nil, nil); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := prof.Submit(profiler.Submission{User: "bench", SQL: e4Query}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4ProfilerLoggingOnly isolates the CQMS-side cost (parse, feature
// extraction, logging) without query execution, which is the overhead a real
// DBMS deployment would add to its own execution time.
func BenchmarkE4ProfilerLoggingOnly(b *testing.B) {
	b.ReportAllocs()
	store := storage.NewStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := storage.NewRecordFromSQL(e4Query)
		if err != nil {
			b.Fatal(err)
		}
		rec.User = "bench"
		mustPut(b, store, rec)
	}
}

func BenchmarkE4MetaQueryLatency(b *testing.B) {
	f := benchFixture(b)
	read := search(metaquery.New(f.store, f.sys.SessionOf))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matches, err := read(metaquery.Keywords("salinity"))
		if err != nil {
			b.Fatal(err)
		}
		if len(matches) == 0 {
			b.Fatal("no matches")
		}
	}
}

func BenchmarkE4KNNLatency(b *testing.B) {
	f := benchFixture(b)
	read := search(metaquery.New(f.store, f.sys.SessionOf))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe, err := storage.NewRecordFromSQL(e4Query)
		if err != nil {
			b.Fatal(err)
		}
		matches, err := read(metaquery.Similar(probe, 10), nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(matches) == 0 {
			b.Fatal("no neighbours")
		}
	}
}

// ---------------------------------------------------------------------------
// E5 — adaptive output sampling
// ---------------------------------------------------------------------------

func benchSamplePolicy(b *testing.B, policy profiler.SamplePolicy) {
	f := benchFixture(b)
	store := storage.NewStore()
	cfg := profiler.DefaultConfig()
	cfg.Sample = policy
	prof := profiler.New(f.eng, store, cfg)
	// A cheap query with a large result: the adaptive policy stores only a
	// handful of rows, the fixed policy stores FixedRows.
	const wide = "SELECT * FROM Observations"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prof.Submit(profiler.Submission{User: "bench", SQL: wide}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5OutputSamplingAdaptive(b *testing.B) {
	benchSamplePolicy(b, profiler.DefaultSamplePolicy())
}

func BenchmarkE5OutputSamplingFixed(b *testing.B) {
	benchSamplePolicy(b, profiler.SamplePolicy{Adaptive: false, FixedRows: 500})
}

// ---------------------------------------------------------------------------
// E6 — association-rule mining: batch vs incremental
// ---------------------------------------------------------------------------

// BenchmarkE6AssociationMiningBatch is the batch side; the incremental side is
// internal/miner's BenchmarkFeedAdd (one query) and BenchmarkFeedRefresh (one
// rule derivation).
func BenchmarkE6AssociationMiningBatch(b *testing.B) {
	f := benchFixture(b)
	transactions := make([][]string, 0, len(f.records))
	for _, r := range f.records {
		transactions = append(transactions, r.Features)
	}
	cfg := miner.DefaultAssocConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rules := miner.MineAssociationRules(transactions, cfg)
		if len(rules) == 0 {
			b.Fatal("no rules")
		}
	}
}

// ---------------------------------------------------------------------------
// E7 — clustering and similarity-measure ablation
// ---------------------------------------------------------------------------

func BenchmarkE7ClusteringKMedoids(b *testing.B) {
	f := benchFixture(b)
	records := f.records
	if len(records) > 400 {
		records = records[:400]
	}
	cfg := miner.ClusterConfig{K: 25, Measure: miner.MeasureFeatures, MaxIters: 20, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clusters := miner.KMedoids(records, cfg)
		if len(clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}

func benchSimilarityMeasure(b *testing.B, m miner.Measure) {
	f := benchFixture(b)
	records := f.records
	if len(records) > 300 {
		records = records[:300]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mat := miner.PairwiseMatrix(m, records); len(mat) == 0 {
			b.Fatal("empty matrix")
		}
	}
}

func BenchmarkE7SimilarityText(b *testing.B)     { benchSimilarityMeasure(b, miner.MeasureText) }
func BenchmarkE7SimilarityFeatures(b *testing.B) { benchSimilarityMeasure(b, miner.MeasureFeatures) }
func BenchmarkE7SimilarityTemplate(b *testing.B) { benchSimilarityMeasure(b, miner.MeasureTemplate) }
func BenchmarkE7SimilarityOutput(b *testing.B)   { benchSimilarityMeasure(b, miner.MeasureOutput) }

// ---------------------------------------------------------------------------
// E8 — maintenance scans and statistics refresh
// ---------------------------------------------------------------------------

func BenchmarkE8MaintenanceScan(b *testing.B) {
	f := benchFixture(b)
	m := maintenance.New(f.eng, f.store)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := m.Scan()
		if err != nil {
			b.Fatal(err)
		}
		if report.Checked == 0 {
			b.Fatal("scan checked nothing")
		}
	}
}

func BenchmarkE8StatsRefresh(b *testing.B) {
	f := benchFixture(b)
	m := maintenance.New(f.eng, f.store)
	ids := f.store.Snapshot().Records(Admin)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Flag a small batch as stale each iteration.
		for j := 0; j < 10; j++ {
			_ = f.store.MarkStatsStale(ids[(i*10+j)%len(ids)].ID, true)
		}
		b.StartTimer()
		if _, err := m.RefreshStats(10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E9 — query-by-data
// ---------------------------------------------------------------------------

func BenchmarkE9QueryByData(b *testing.B) {
	f := benchFixture(b)
	read := search(metaquery.New(f.store, f.sys.SessionOf))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The paper's example: output includes Lake Washington but not Lake
		// Union.
		_, _ = read(metaquery.ByData([]string{"Lake Washington"}, []string{"Lake Union"}))
	}
}

// ---------------------------------------------------------------------------
// End-to-end: a mining pass over the whole log (the background job), which
// is the feed's rule derivation and nothing else.
// ---------------------------------------------------------------------------

func BenchmarkFullMiningPass(b *testing.B) {
	f := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := f.sys.RunMiner()
		if res.TransactionCount == 0 {
			b.Fatal("mined nothing")
		}
	}
}

// ---------------------------------------------------------------------------
// Storage concurrency — the lock-free record table's scaling claims
// ---------------------------------------------------------------------------

// runConcurrent splits b.N iterations across g goroutines and waits for all
// of them, so ns/op reflects wall-clock time per operation under g-way
// concurrency: if read throughput scales with cores, ns/op drops as g grows
// instead of staying flat.
func runConcurrent(b *testing.B, g int, fn func()) {
	b.Helper()
	var wg sync.WaitGroup
	per := b.N / g
	extra := b.N % g
	for w := 0; w < g; w++ {
		n := per
		if w < extra {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				fn()
			}
		}(n)
	}
	wg.Wait()
}

// BenchmarkConcurrentMetaQuery measures keyword meta-query throughput over
// the full log at increasing goroutine counts. With the lock-free, zero-clone
// snapshot store the per-query cost should fall as goroutines are added;
// under the old single-mutex deep-clone store it stayed flat (every reader
// serialised on the same lock while copying every record).
func BenchmarkConcurrentMetaQuery(b *testing.B) {
	f := benchFixture(b)
	read := search(metaquery.New(f.store, f.sys.SessionOf))
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			runConcurrent(b, g, func() {
				if matches, err := read(metaquery.Keywords("salinity")); err != nil || len(matches) == 0 {
					b.Error("no matches")
				}
			})
		})
	}
}

// BenchmarkConcurrentSnapshotScan isolates the storage layer: a full
// access-controlled scan of the log per operation, no similarity scoring on
// top.
func BenchmarkConcurrentSnapshotScan(b *testing.B) {
	f := benchFixture(b)
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			runConcurrent(b, g, func() {
				n := 0
				f.store.Snapshot().Scan(Admin, func(*storage.QueryRecord) bool {
					n++
					return true
				})
				if n == 0 {
					b.Error("empty scan")
				}
			})
		})
	}
}

// BenchmarkPutUnderReadLoad measures write latency while 1/4/8 reader
// goroutines continuously scan the store — the paper's concurrent workload of
// background mining and interactive meta-querying running against live
// profiler traffic.
func BenchmarkPutUnderReadLoad(b *testing.B) {
	f := benchFixture(b)
	for _, readers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			store := storage.NewStore()
			for _, rec := range f.records {
				mustPut(b, store, rec.Clone())
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						store.Snapshot().Scan(Admin, func(*storage.QueryRecord) bool { return true })
					}
				}()
			}
			recs := walBenchRecords(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustPut(b, store, recs[i%len(recs)].Clone())
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// ---------------------------------------------------------------------------
// WAL — durable query-log append throughput and recovery time
// ---------------------------------------------------------------------------

// mustPut stores rec and fails the benchmark if the store refuses it. It does
// not call tb.Helper: timed loops call it, and Helper walks the stack.
func mustPut(tb testing.TB, store *storage.Store, rec *storage.QueryRecord) storage.QueryID {
	id, err := store.Put(rec)
	if err != nil {
		tb.Errorf("Put: %v", err)
	}
	return id
}

// walBenchRecords returns a handful of parsed records to cycle through, so
// appended mutations look like the real profiler output: each carries the
// output sample the profiler would log for it.
func walBenchRecords(b *testing.B) []*storage.QueryRecord {
	b.Helper()
	queries := []struct {
		sql     string
		columns []string
		rows    [][]string
	}{
		{"SELECT WaterTemp.lake, WaterTemp.temp FROM WaterTemp WHERE WaterTemp.temp < 15",
			[]string{"lake", "temp"}, [][]string{{"Lake Washington", "14.5"}, {"Lake Union", "12.1"}, {"Lake Chelan", "9.8"}}},
		{"SELECT WaterSalinity.lake, AVG(WaterSalinity.salinity) FROM WaterSalinity GROUP BY WaterSalinity.lake",
			[]string{"lake", "AVG(WaterSalinity.salinity)"}, [][]string{{"Lake Union", "3.1"}, {"Lake Washington", "2.5"}, {"Lake Sammamish", "1.8"}}},
		{"SELECT Observations.id FROM Observations, Stations WHERE Observations.station = Stations.id",
			[]string{"id"}, [][]string{{"1"}, {"2"}, {"3"}}},
		{"SELECT Stations.name FROM Stations ORDER BY Stations.name",
			[]string{"name"}, [][]string{{"Alder Point"}, {"Birch Bay"}, {"Cedar Cove"}}},
	}
	recs := make([]*storage.QueryRecord, 0, len(queries))
	for i, q := range queries {
		rec, err := storage.NewRecordFromSQL(q.sql)
		if err != nil {
			b.Fatal(err)
		}
		rec.User = fmt.Sprintf("bench%d", i)
		rec.Stats = storage.RuntimeStats{ExecTime: time.Millisecond, ResultRows: 42}
		rec.Sample = &storage.OutputSample{Columns: q.columns, Rows: q.rows, TotalRows: 42, Truncated: true}
		recs = append(recs, rec)
	}
	return recs
}

// openInstrumented opens the log of store as core does: the store and the
// log register their instruments on one registry.
func openInstrumented(store *storage.Store, cfg wal.Config) (*wal.Manager, *wal.RecoveryInfo, error) {
	reg := telemetry.NewRegistry()
	store.EnableMetrics(reg)
	return wal.Open(store, cfg, reg)
}

// BenchmarkWALAppend measures the per-mutation cost of durable logging — the
// overhead a durable deployment adds to Store.Put — under each fsync policy,
// and reports the log's size per record (B/record). The records cycle through
// four texts and their answers, as a log repeats itself: after the first four
// puts every frame refers to its shape and its sample by number.
func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []string{"off", "interval", "always"} {
		b.Run("sync="+policy, func(b *testing.B) {
			store := storage.NewStore()
			cfg := wal.DefaultConfig(b.TempDir())
			cfg.SyncPolicy = policy
			mgr, _, err := openInstrumented(store, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer mgr.Close()
			recs := walBenchRecords(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustPut(b, store, recs[i%len(recs)].Clone())
			}
			b.StopTimer()
			if err := mgr.Err(); err != nil {
				b.Fatal(err)
			}
			info, err := mgr.Info()
			if err != nil {
				b.Fatal(err)
			}
			var logBytes int64
			for _, seg := range info.Segments {
				logBytes += seg.Bytes
			}
			b.ReportMetric(float64(logBytes)/float64(b.N), "B/record")
		})
	}
}

// BenchmarkOpenLoopIngest measures raw ingest throughput with concurrent
// submitters hammering a durable store under SyncAlways — the paper's
// "profiler logs every query as a side effect of normal use" firehose. With
// one fsync per record inside the commit lock, throughput is flat (or worse)
// as submitters are added; with group commit the concurrent submitters share
// fsyncs and throughput scales.
func BenchmarkOpenLoopIngest(b *testing.B) {
	for _, submitters := range []int{1, 8} {
		b.Run(fmt.Sprintf("submitters=%d", submitters), func(b *testing.B) {
			store := storage.NewStore()
			cfg := wal.DefaultConfig(b.TempDir())
			cfg.SyncPolicy = "always"
			mgr, _, err := openInstrumented(store, cfg)
			if err != nil {
				b.Fatal(err)
			}
			recs := walBenchRecords(b)
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			runConcurrent(b, submitters, func() {
				i := int(next.Add(1))
				mustPut(b, store, recs[i%len(recs)].Clone())
			})
			b.StopTimer()
			if err := mgr.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// walRecoveryDirs builds (once) two data directories holding ~100k logged
// mutations: one as a pure WAL, one compacted into a snapshot. Recovery from
// each is what the benchmarks below measure.
const walRecoveryRecords = 100_000

var (
	walRecoveryOnce    sync.Once
	walRecoveryWALDir  string
	walRecoverySnapDir string
	walRecoveryErr     error
)

// TestMain removes the shared WAL-recovery directories after the run; they
// cannot be b.TempDir() (cleaned when one benchmark returns) and would
// otherwise pile up in the system temp dir.
func TestMain(m *testing.M) {
	code := m.Run()
	for _, dir := range []string{walRecoveryWALDir, walRecoverySnapDir, recoveryDir} {
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	os.Exit(code)
}

func walRecoverySetup(b *testing.B) (walDir, snapDir string) {
	b.Helper()
	walRecoveryOnce.Do(func() {
		recs := walBenchRecords(b)
		build := func(dir string, compact bool) error {
			store := storage.NewStore()
			cfg := wal.DefaultConfig(dir)
			cfg.SyncPolicy = "off"
			mgr, _, err := wal.Open(store, cfg, nil)
			if err != nil {
				return err
			}
			for i := 0; i < walRecoveryRecords; i++ {
				id := mustPut(b, store, recs[i%len(recs)].Clone())
				if i%100 == 0 {
					if err := store.Annotate(id, Admin, storage.Annotation{Author: "bench", Text: "note"}); err != nil {
						return err
					}
				}
			}
			if compact {
				if _, _, _, err := mgr.Compact(); err != nil {
					return err
				}
			}
			return mgr.Close()
		}
		// Not b.TempDir(): these directories are shared across benchmark
		// functions, and b.TempDir is removed when its benchmark returns.
		if walRecoveryWALDir, walRecoveryErr = os.MkdirTemp("", "cqms-wal-bench-"); walRecoveryErr != nil {
			return
		}
		if walRecoverySnapDir, walRecoveryErr = os.MkdirTemp("", "cqms-wal-bench-"); walRecoveryErr != nil {
			return
		}
		if err := build(walRecoveryWALDir, false); err != nil {
			walRecoveryErr = err
			return
		}
		walRecoveryErr = build(walRecoverySnapDir, true)
	})
	if walRecoveryErr != nil {
		b.Fatal(walRecoveryErr)
	}
	return walRecoveryWALDir, walRecoverySnapDir
}

func benchWALRecovery(b *testing.B, dir string) {
	cfg := wal.DefaultConfig(dir)
	cfg.SyncPolicy = "off"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := storage.NewStore()
		mgr, info, err := wal.Open(store, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if info.Queries != walRecoveryRecords {
			b.Fatalf("recovered %d queries, want %d", info.Queries, walRecoveryRecords)
		}
		if err := mgr.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALRecoveryReplay rebuilds a ~100k-query store by replaying the
// raw WAL — the worst-case restart.
func BenchmarkWALRecoveryReplay(b *testing.B) {
	walDir, _ := walRecoverySetup(b)
	benchWALRecovery(b, walDir)
}

// BenchmarkWALRecoverySnapshot rebuilds the same store from a compacted
// snapshot — the restart path the background snapshotter keeps cheap.
func BenchmarkWALRecoverySnapshot(b *testing.B) {
	_, snapDir := walRecoverySetup(b)
	benchWALRecovery(b, snapDir)
}

// ---------------------------------------------------------------------------
// Derived-state recovery: a restart restores the records from a snapshot and
// rebuilds the stats counters, the miner feed and the live session windows
// from them.
// ---------------------------------------------------------------------------

// recoveryRecords sizes the recovery and replica logs: a log of >= 50k
// records.
const recoveryRecords = 50_000

var (
	recoveryOnce sync.Once
	recoveryDir  string
	recoveryErr  error
)

// attachSubscribers wires the full derived-state subscriber set the core
// attaches: stats tracker, miner feed and live session detector.
func attachSubscribers(store *storage.Store) {
	stats.Attach(store)
	feed := miner.NewFeed(miner.DefaultAssocConfig())
	feed.Attach(store)
	session.AttachLive(store)
}

// recoverySetup builds (once) a 50k-record data directory fully compacted
// into one snapshot.
func recoverySetup(b *testing.B) string {
	b.Helper()
	recoveryOnce.Do(func() {
		// A few hundred distinct parsed records give the counters realistic
		// key diversity without paying 50k SQL parses.
		variants := make([]*storage.QueryRecord, 0, 200)
		for i := 0; i < 200; i++ {
			var text string
			switch i % 4 {
			case 0:
				text = fmt.Sprintf("SELECT WaterTemp.lake, WaterTemp.temp FROM WaterTemp WHERE WaterTemp.temp < %d", i%37)
			case 1:
				text = fmt.Sprintf("SELECT WaterSalinity.lake FROM WaterSalinity WHERE WaterSalinity.salinity > %d", i%23)
			case 2:
				text = "SELECT Observations.id FROM Observations, Stations WHERE Observations.station = Stations.id"
			default:
				text = fmt.Sprintf("SELECT Stations.name FROM Stations WHERE Stations.id = %d", i)
			}
			rec, err := storage.NewRecordFromSQL(text)
			if err != nil {
				recoveryErr = err
				return
			}
			variants = append(variants, rec)
		}
		if recoveryDir, recoveryErr = os.MkdirTemp("", "cqms-recovery-bench-"); recoveryErr != nil {
			return
		}
		store := storage.NewStore()
		cfg := wal.DefaultConfig(recoveryDir)
		cfg.SyncPolicy = "off"
		mgr, _, err := wal.Open(store, cfg, nil)
		if err != nil {
			recoveryErr = err
			return
		}
		// 40 users in round-robin, ~20min between one user's consecutive
		// queries (soft gap: similarity decides) and an occasional 2h jump
		// (hard boundary), so the log segments into many real sessions.
		clock := time.Date(2026, 1, 5, 9, 0, 0, 0, time.UTC)
		for i := 0; i < recoveryRecords; i++ {
			clock = clock.Add(30 * time.Second)
			if i%4096 == 4095 {
				clock = clock.Add(2 * time.Hour)
			}
			rec := variants[i%len(variants)].Clone()
			rec.User = fmt.Sprintf("user%02d", i%40)
			rec.IssuedAt = clock
			mustPut(b, store, rec)
		}
		if _, _, _, recoveryErr = mgr.Compact(); recoveryErr != nil {
			return
		}
		recoveryErr = mgr.Close()
	})
	if recoveryErr != nil {
		b.Fatal(recoveryErr)
	}
	return recoveryDir
}

// BenchmarkRecovery restarts a durable 50k-query CQMS store from its
// snapshot: the records are restored, and every derived-state subscriber
// rebuilds from them — the stats counters shape by shape, the miner feed by
// feature set, the session detector with its re-sort and boundary pass over
// every user's stream (it labels no edge).
func BenchmarkRecovery(b *testing.B) {
	cfg := wal.DefaultConfig(recoverySetup(b))
	cfg.SyncPolicy = "off"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := storage.NewStore()
		attachSubscribers(store)
		mgr, info, err := openInstrumented(store, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if info.Queries != recoveryRecords {
			b.Fatalf("recovered %d queries, want %d", info.Queries, recoveryRecords)
		}
		if err := mgr.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Replica catch-up: a follower applying a streamed WAL tail through the
// replication path (CRC frame decode → mutation decode → store.Apply with
// every derived-state subscriber attached).
// ---------------------------------------------------------------------------

var (
	replicaTailOnce sync.Once
	replicaTail     []byte // recoveryRecords records as streamed CRC frames
	replicaTailErr  error
)

// replicaTailSetup builds (once) a 50k-record WAL and serialises its full
// tail exactly as GET /v1/replication/wal would stream it.
func replicaTailSetup(b *testing.B) []byte {
	b.Helper()
	replicaTailOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cqms-replica-bench-")
		if err != nil {
			replicaTailErr = err
			return
		}
		store := storage.NewStore()
		cfg := wal.DefaultConfig(dir)
		cfg.SyncPolicy = "off"
		mgr, _, err := wal.Open(store, cfg, nil)
		if err != nil {
			replicaTailErr = err
			return
		}
		rec, err := storage.NewRecordFromSQL("SELECT WaterTemp.lake, WaterTemp.temp FROM WaterTemp WHERE WaterTemp.temp < 15")
		if err != nil {
			replicaTailErr = err
			return
		}
		clock := time.Date(2026, 1, 5, 9, 0, 0, 0, time.UTC)
		for i := 0; i < recoveryRecords; i++ {
			clock = clock.Add(30 * time.Second)
			r := rec.Clone()
			r.User = fmt.Sprintf("user%02d", i%40)
			r.IssuedAt = clock
			mustPut(b, store, r)
		}
		var buf bytes.Buffer
		if _, _, err := mgr.ReadTail(0, 1<<40, &buf); err != nil {
			replicaTailErr = err
			return
		}
		replicaTail = buf.Bytes()
		replicaTailErr = mgr.Close()
	})
	if replicaTailErr != nil {
		b.Fatal(replicaTailErr)
	}
	return replicaTail
}

// BenchmarkReplicaCatchUp measures a follower replaying a 50k-record WAL
// tail from scratch: the cost of bringing a fresh read replica level with
// the primary, derived state included.
func BenchmarkReplicaCatchUp(b *testing.B) {
	tail := replicaTailSetup(b)
	b.SetBytes(int64(len(tail)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := storage.NewStore()
		attachSubscribers(store)
		err := wal.ReadFrames(bytes.NewReader(tail), func(seq uint64, payload []byte) error {
			m, err := storage.DecodeMutation(payload)
			if err != nil {
				return err
			}
			return store.Apply(m)
		})
		if err != nil {
			b.Fatal(err)
		}
		if got := store.Count(); got != recoveryRecords {
			b.Fatalf("replayed %d records, want %d", got, recoveryRecords)
		}
	}
}

// Guard: the fixture must look like the workload the experiments assume.
func TestBenchFixtureShape(t *testing.T) {
	f := benchFixture(&testing.B{})
	if f.store.Count() < 500 {
		t.Errorf("fixture has only %d queries", f.store.Count())
	}
	if len(f.trace.Users) != 20 {
		t.Errorf("fixture users = %d", len(f.trace.Users))
	}
	if f.mining == nil || len(f.mining.Rules) == 0 {
		t.Errorf("fixture mining result empty")
	}
	if f.eng.Catalog().Version() == 0 {
		t.Errorf("engine catalog empty")
	}
	elapsed := time.Duration(0)
	for _, rec := range f.records {
		elapsed += rec.Stats.ExecTime
	}
	if elapsed == 0 {
		t.Errorf("no runtime statistics recorded")
	}
}

// ---------------------------------------------------------------------------
// HTTP serving path — the v1 API end to end (router, middleware, principal
// headers, JSON codec, pagination) over the shared fixture.
// ---------------------------------------------------------------------------

// httpFixture starts an httptest server over the shared benchfixture CQMS.
func httpFixture(b *testing.B) (*httptest.Server, *client.Client) {
	b.Helper()
	f := benchFixture(b)
	ts := httptest.NewServer(server.New(f.sys).Handler())
	b.Cleanup(ts.Close)
	return ts, client.New(ts.URL, client.WithUser("bench"), client.WithAdmin())
}

// BenchmarkHTTPSearchKeyword measures one keyword-search round trip over the
// v1 API, drained by the client page by page: request decode, header
// principal, index-backed pages and response encode.
func BenchmarkHTTPSearchKeyword(b *testing.B) {
	ts, c := httpFixture(b)
	_ = ts
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matches, err := drain(c.SearchKeyword(ctx, "salinity"))
		if err != nil {
			b.Fatal(err)
		}
		if len(matches) == 0 {
			b.Fatal("no matches over HTTP")
		}
	}
}

// BenchmarkHTTPSubmitSingle vs BenchmarkHTTPSubmitBatch shows what the batch
// endpoint buys: one round trip and one commit-lock acquisition per
// batchSize queries instead of per query. ns/op is per query in both.
const httpBatchSize = 50

func BenchmarkHTTPSubmitSingle(b *testing.B) {
	ts, c := httpFixture(b)
	_ = ts
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Submit(ctx, "SELECT Stations.name FROM Stations ORDER BY Stations.name")
		if err != nil {
			b.Fatal(err)
		}
		if resp.QueryID == 0 {
			b.Fatal("no query id")
		}
	}
}

func BenchmarkHTTPSubmitBatch(b *testing.B) {
	ts, c := httpFixture(b)
	_ = ts
	ctx := context.Background()
	queries := make([]server.SubmitParams, httpBatchSize)
	for i := range queries {
		queries[i] = server.SubmitParams{SQL: "SELECT Stations.name FROM Stations ORDER BY Stations.name"}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for submitted := 0; submitted < b.N; submitted += httpBatchSize {
		resp, err := c.SubmitBatch(ctx, queries)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range resp.Results {
			if res.Error != nil {
				b.Fatalf("batch item failed: %v", res.Error)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Telemetry layer — the instrumentation itself must be cheap enough to sit
// on every commit and every request.
// ---------------------------------------------------------------------------

// BenchmarkTelemetryCounterHotPath measures one counter increment — the cost
// added to every instrumented event. It must stay low-single-digit ns and
// zero-alloc; the CI benchgate holds the allocation count at zero.
func BenchmarkTelemetryCounterHotPath(b *testing.B) {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("bench_events_total", "benchmark counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr.Inc()
	}
	if ctr.Value() != uint64(b.N) {
		b.Fatalf("count = %d, want %d", ctr.Value(), b.N)
	}
}

// BenchmarkHTTPSubmitBatchInstrumented is BenchmarkHTTPSubmitBatch's shape
// with the full telemetry stack engaged end to end (HTTP middleware,
// per-route series, store mutation counters, commit-lock hold and bus
// callback timing): the delta between the two is the total instrumentation
// overhead of the hottest write path. ns/op is per query.
func BenchmarkHTTPSubmitBatchInstrumented(b *testing.B) {
	ts, c := httpFixture(b)
	_ = ts
	ctx := context.Background()
	queries := make([]server.SubmitParams, httpBatchSize)
	for i := range queries {
		queries[i] = server.SubmitParams{SQL: "SELECT Stations.name FROM Stations ORDER BY Stations.name"}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for submitted := 0; submitted < b.N; submitted += httpBatchSize {
		resp, err := c.SubmitBatch(ctx, queries)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range resp.Results {
			if res.Error != nil {
				b.Fatalf("batch item failed: %v", res.Error)
			}
		}
	}
}

// drain reads every remaining item of it, as a client's listing loop does.
func drain[T any](it *client.Iter[T]) ([]T, error) {
	var out []T
	for it.Next() {
		out = append(out, it.Item())
	}
	return out, it.Err()
}
