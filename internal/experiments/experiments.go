// Package experiments implements the per-experiment harness: for each
// experiment E1–E9 it builds the synthetic workload, runs the relevant CQMS
// components and computes the quality metrics (hit rates, precision/recall,
// overhead ratios) reported next to the paper's qualitative claims. cmd/cqms-bench prints these results; the
// timing-oriented counterparts live in the root bench_test.go.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/maintenance"
	"repro/internal/metaquery"
	"repro/internal/miner"
	"repro/internal/profiler"
	"repro/internal/recommend"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/workload"
)

// admin bypasses access control for measurement purposes.
var admin = storage.Principal{Admin: true}

// Options size the synthetic workload used by every experiment.
type Options struct {
	RowsPerTable    int
	Users           int
	SessionsPerUser int
	Seed            int64
}

// DefaultOptions is the workload size cqms-bench's flags default to.
func DefaultOptions() Options {
	return Options{RowsPerTable: 1000, Users: 20, SessionsPerUser: 10, Seed: 42}
}

// Metric is one reported measurement.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
}

// Result is the outcome of one experiment.
type Result struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Claim   string   `json:"claim"` // the paper's qualitative claim this experiment checks
	Metrics []Metric `json:"metrics"`
	Notes   string   `json:"notes,omitempty"`
}

// Format renders the result as the text block cqms-bench prints.
func (r Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&sb, "  paper claim: %s\n", r.Claim)
	for _, m := range r.Metrics {
		fmt.Fprintf(&sb, "  %-42s %12.3f %s\n", m.Name, m.Value, m.Unit)
	}
	if r.Notes != "" {
		fmt.Fprintf(&sb, "  note: %s\n", r.Notes)
	}
	return sb.String()
}

// Env is the shared experimental environment: a populated engine, a CQMS with
// a replayed trace, and the trace's ground truth.
type Env struct {
	Opts  Options
	Sys   *core.CQMS
	Eng   *engine.Engine
	Trace *workload.Trace
}

// NewEnv builds the shared environment.
func NewEnv(opts Options) (*Env, error) {
	eng := engine.New()
	if err := workload.Populate(eng, opts.RowsPerTable, opts.Seed); err != nil {
		return nil, err
	}
	sys := core.NewWithEngine(eng, core.DefaultConfig())
	cfg := workload.DefaultConfig()
	cfg.Seed = opts.Seed
	cfg.Users = opts.Users
	cfg.SessionsPerUser = opts.SessionsPerUser
	trace := workload.Generate(cfg)
	prof := profiler.New(eng, sys.Store(), profiler.DefaultConfig())
	if _, err := workload.Replay(trace, prof); err != nil {
		return nil, err
	}
	return &Env{Opts: opts, Sys: sys, Eng: eng, Trace: trace}, nil
}

// RunAll runs every experiment and returns their results in order.
func RunAll(env *Env) ([]Result, error) {
	runs := []func(*Env) (Result, error){
		E1QueryByFeature,
		E2SessionDetection,
		E3AssistedInteraction,
		E4ProfilerOverhead,
		E5OutputSampling,
		E6AssociationMining,
		E7Clustering,
		E8Maintenance,
		E9QueryByData,
	}
	var out []Result
	for _, run := range runs {
		res, err := run(env)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// E1 — Figure 1 meta-query
// ---------------------------------------------------------------------------

// E1QueryByFeature checks that the Figure 1 query-by-feature meta-query finds
// exactly the logged queries that correlate WaterSalinity with WaterTemp, and
// compares its latency against a raw-text substring scan.
func E1QueryByFeature(env *Env) (Result, error) {
	store := env.Sys.Store()
	// Ground truth: logged queries whose FROM references both relations.
	truth := make(map[storage.QueryID]bool)
	store.Snapshot().Scan(admin, func(rec *storage.QueryRecord) bool {
		hasSal, hasTemp := false, false
		for _, t := range rec.Tables {
			if t == "WaterSalinity" {
				hasSal = true
			}
			if t == "WaterTemp" {
				hasTemp = true
			}
		}
		if hasSal && hasTemp {
			truth[rec.ID] = true
		}
		return true
	})
	meta := `SELECT Q.qid, Q.qText FROM Queries Q, DataSources D1, DataSources D2
		WHERE Q.qid = D1.qid AND Q.qid = D2.qid
		AND D1.relName = 'WaterSalinity' AND D2.relName = 'WaterTemp'`
	start := time.Now()
	_, matches, err := env.Sys.MetaQuery(context.Background(), admin, meta)
	if err != nil {
		return Result{}, err
	}
	metaLatency := time.Since(start)

	correct := 0
	for _, m := range matches {
		if truth[m.Record.ID] {
			correct++
		}
	}
	precision := ratio(correct, len(matches))
	recall := ratio(correct, len(truth))

	// Baseline: substring search over raw text (served from the search index
	// now; the comparison is about precision, not about how it is evaluated).
	start = time.Now()
	sub, err := env.Sys.SearchSubstring(context.Background(), admin, "WaterSalinity")
	if err != nil {
		return Result{}, err
	}
	textMatches := 0
	for _, m := range sub {
		if strings.Contains(m.Record.Text, "WaterTemp") {
			textMatches++
		}
	}
	textLatency := time.Since(start)

	return Result{
		ID:    "E1",
		Title: "Query-by-feature meta-query (Figure 1)",
		Claim: "feature relations let users find all queries correlating salinity with temperature",
		Metrics: []Metric{
			{"queries in log", float64(store.Count()), "queries"},
			{"ground-truth correlating queries", float64(len(truth)), "queries"},
			{"meta-query matches", float64(len(matches)), "queries"},
			{"meta-query precision", precision, ""},
			{"meta-query recall", recall, ""},
			{"meta-query latency", float64(metaLatency.Microseconds()) / 1000, "ms"},
			{"raw-text scan matches", float64(textMatches), "queries"},
			{"raw-text scan latency", float64(textLatency.Microseconds()) / 1000, "ms"},
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E2 — session detection
// ---------------------------------------------------------------------------

// E2SessionDetection measures how well the session detector recovers the
// generator's ground-truth session boundaries.
func E2SessionDetection(env *Env) (Result, error) {
	records := env.Sys.Store().Snapshot().Records(admin)
	start := time.Now()
	detected := session.NewDetector().Detect(records)
	latency := time.Since(start)

	// Ground truth lookup by (user, text, time).
	truth := make(map[string]int)
	for _, q := range env.Trace.Queries {
		truth[q.User+"|"+q.SQL+"|"+q.IssuedAt.UTC().String()] = q.SessionID
	}
	// Purity: a detected session is pure if all its queries share one
	// ground-truth session.
	pure := 0
	for _, s := range detected {
		seen := map[int]bool{}
		for _, rec := range s.Queries {
			if id, ok := truth[rec.User+"|"+rec.Text+"|"+rec.IssuedAt.UTC().String()]; ok {
				seen[id] = true
			}
		}
		if len(seen) <= 1 {
			pure++
		}
	}
	return Result{
		ID:    "E2",
		Title: "Session detection and Figure 2 rendering",
		Claim: "query sessions can be automatically identified and visually summarised",
		Metrics: []Metric{
			{"ground-truth sessions", float64(env.Trace.Sessions), "sessions"},
			{"detected sessions", float64(len(detected)), "sessions"},
			{"detected/truth ratio", ratio(len(detected), env.Trace.Sessions), ""},
			{"session purity", ratio(pure, len(detected)), ""},
			{"detection latency (full log)", float64(latency.Microseconds()) / 1000, "ms"},
		},
		Notes: "purity = fraction of detected sessions whose queries all belong to one ground-truth session",
	}, nil
}

// ---------------------------------------------------------------------------
// E3 — assisted interaction
// ---------------------------------------------------------------------------

// E3AssistedInteraction evaluates context-aware table completion with a
// hold-one-table-out protocol, against the global-popularity baseline, and
// similar-query retrieval by topic.
func E3AssistedInteraction(env *Env) (Result, error) {
	store := env.Sys.Store()
	records := store.Snapshot().Records(admin)

	exec := metaquery.New(store, env.Sys.SessionOf)
	contextCfg := recommend.DefaultConfig()
	rules := env.Sys.MinerFeed().Rules
	contextRec := recommend.New(store, exec, env.Sys.StatsTracker(), rules, env.Sys.Engine().Catalog(), contextCfg)
	popCfg := recommend.DefaultConfig()
	popCfg.ContextAware = false
	popRec := recommend.New(store, exec, env.Sys.StatsTracker(), rules, env.Sys.Engine().Catalog(), popCfg)

	// k = 1: the metric is whether the single top suggestion is the held-out
	// table. With the small schema a top-3 window would let the popularity
	// baseline succeed trivially, hiding the §2.3 effect.
	const k = 1
	// globalTopFor returns the globally most popular table not already in the
	// partial query — what a popularity-only assistant would suggest first.
	tableCounts := env.Sys.StatsTracker().TableCounts(admin)
	globalTopFor := func(kept []string) string {
		for _, tc := range tableCounts {
			inKept := false
			for _, t := range kept {
				if strings.EqualFold(t, tc.Table) {
					inKept = true
					break
				}
			}
			if !inKept {
				return tc.Table
			}
		}
		return ""
	}
	var trials, contextHits, popHits int
	var hardTrials, hardContextHits, hardPopHits int
	var contextWins, popWins int
	for _, rec := range records {
		if len(rec.Tables) < 2 || trials >= 400 {
			continue
		}
		// Hold out every table of the query in turn: the partial query
		// mentions the remaining ones and the assistant must propose the
		// held-out one.
		for holdIdx := range rec.Tables {
			heldOut := rec.Tables[holdIdx]
			kept := make([]string, 0, len(rec.Tables)-1)
			for i, t := range rec.Tables {
				if i != holdIdx {
					kept = append(kept, t)
				}
			}
			partial := "SELECT * FROM " + strings.Join(kept, ", ")
			trials++
			ctxHit := hitInTopK(contextRec.SuggestTables(admin, partial, k), heldOut)
			popHit := hitInTopK(popRec.SuggestTables(admin, partial, k), heldOut)
			if ctxHit {
				contextHits++
			}
			if popHit {
				popHits++
			}
			if ctxHit && !popHit {
				contextWins++
			}
			if popHit && !ctxHit {
				popWins++
			}
			// "Hard" trials are the paper's §2.3 situation: the right table is
			// NOT the globally most popular one, so popularity alone cannot
			// find it at rank 1.
			if !strings.EqualFold(globalTopFor(kept), heldOut) {
				hardTrials++
				if ctxHit {
					hardContextHits++
				}
				if popHit {
					hardPopHits++
				}
			}
		}
	}

	// Similar-query retrieval: probe with one query per topic, count how many
	// of the top-5 results come from the same ground-truth topic.
	topicOf := make(map[uint64]string)
	for _, q := range env.Trace.Queries {
		fp := storageFingerprint(q.SQL)
		if _, ok := topicOf[fp]; !ok {
			topicOf[fp] = q.Topic
		}
	}
	var simTrials, simSameTopic int
	seenTopic := map[string]bool{}
	for _, q := range env.Trace.Queries {
		if seenTopic[q.Topic] {
			continue
		}
		seenTopic[q.Topic] = true
		similar, err := contextRec.SimilarQueries(context.Background(), admin, q.SQL, 5)
		if err != nil {
			continue
		}
		for _, s := range similar {
			simTrials++
			if topicOf[s.Record.Fingerprint] == q.Topic {
				simSameTopic++
			}
		}
	}

	return Result{
		ID:    "E3",
		Title: "Assisted interaction (Figure 3)",
		Claim: "context-aware suggestions (WaterSalinity => WaterTemp) beat global popularity; similar queries help users leverage others' analyses",
		Metrics: []Metric{
			{"hold-out completion trials", float64(trials), "trials"},
			{fmt.Sprintf("context-aware hit rate@%d", k), ratio(contextHits, trials), ""},
			{fmt.Sprintf("popularity-only hit rate@%d", k), ratio(popHits, trials), ""},
			{"trials won by context only", float64(contextWins), "trials"},
			{"trials won by popularity only", float64(popWins), "trials"},
			{"hard trials (truth != global top)", float64(hardTrials), "trials"},
			{fmt.Sprintf("context-aware hit rate@%d (hard)", k), ratio(hardContextHits, hardTrials), ""},
			{fmt.Sprintf("popularity-only hit rate@%d (hard)", k), ratio(hardPopHits, hardTrials), ""},
			{"similar-query same-topic fraction", ratio(simSameTopic, simTrials), ""},
		},
		Notes: "hard trials are those where the correct next table differs from the globally most popular table (the paper's WaterSalinity => WaterTemp over CityLocations situation)",
	}, nil
}

func hitInTopK(completions []recommend.Completion, want string) bool {
	for _, c := range completions {
		if c.Kind == recommend.CompleteTable && strings.EqualFold(c.Text, want) {
			return true
		}
	}
	return false
}

func storageFingerprint(sqlText string) uint64 {
	rec, err := storage.NewRecordFromSQL(sqlText)
	if err != nil {
		return 0
	}
	return rec.Fingerprint
}

// ---------------------------------------------------------------------------
// E4 — profiler overhead and interactive meta-querying
// ---------------------------------------------------------------------------

// E4ProfilerOverhead compares unprofiled execution against profiled
// submission and reports meta-query latency on the full log. The profiler
// answers a repeated SELECT over unchanged data from its memo, so the
// overhead is measured on the path that executes: before each profiled round
// an INSERT of no rows swaps a table no query reads, which moves the
// catalog's data epoch as any write does and changes no data. The same
// statements submitted again with no write between are the memo's hits,
// reported on their own.
func E4ProfilerOverhead(env *Env) (Result, error) {
	queries := []string{
		"SELECT lake, AVG(temp) AS avg_temp FROM WaterTemp WHERE temp < 18 GROUP BY lake ORDER BY avg_temp DESC",
		"SELECT WaterTemp.lake, WaterTemp.temp, WaterSalinity.salinity FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND WaterTemp.temp < 15",
		"SELECT city FROM CityLocations WHERE state = 'WA' AND pop > 100000",
		"SELECT Stars.name, AVG(Observations.flux) AS f FROM Stars, Observations WHERE Stars.star_id = Observations.star_id GROUP BY Stars.name ORDER BY f DESC LIMIT 20",
	}
	const rounds = 25

	// Baseline: plain execution.
	start := time.Now()
	for i := 0; i < rounds; i++ {
		for _, q := range queries {
			if _, err := env.Sys.ExecuteUnprofiled(q); err != nil {
				return Result{}, err
			}
		}
	}
	baseline := time.Since(start)

	// Profiled: execution + logging into a throwaway store, each round after
	// a write, so that every submission executes.
	store := storage.NewStore()
	prof := profiler.New(env.Eng, store, profiler.DefaultConfig())
	submitAll := func() (time.Duration, error) {
		start := time.Now()
		for _, q := range queries {
			if _, err := prof.Submit(profiler.Submission{User: "bench", SQL: q}); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	var profiled, hits time.Duration
	for i := 0; i < rounds; i++ {
		if _, err := env.Eng.Catalog().Insert("Sensors", nil, nil); err != nil {
			return Result{}, err
		}
		d, err := submitAll()
		if err != nil {
			return Result{}, err
		}
		profiled += d
	}
	// Memo hits: the same statements again, with no write between.
	for i := 0; i < rounds; i++ {
		d, err := submitAll()
		if err != nil {
			return Result{}, err
		}
		hits += d
	}

	overheadPct := 0.0
	if baseline > 0 {
		overheadPct = 100 * float64(profiled-baseline) / float64(baseline)
	}

	// Interactive meta-query latency over the full log.
	start = time.Now()
	_, _ = env.Sys.Search(context.Background(), admin, "salinity")
	keywordLatency := time.Since(start)
	start = time.Now()
	probe, err := storage.NewRecordFromSQL(queries[0])
	if err != nil {
		return Result{}, err
	}
	if _, err := env.Sys.SearchPage(context.Background(), admin, metaquery.Similar(probe, 10), metaquery.Cursor{}, 0); err != nil {
		return Result{}, err
	}
	knnLatency := time.Since(start)

	n := rounds * len(queries)
	return Result{
		ID:    "E4",
		Title: "Profiling overhead and interactive meta-querying (Figure 4 requirements)",
		Claim: "the CQMS must not impose significant runtime overhead and meta-querying must be interactive",
		Metrics: []Metric{
			{"queries executed per variant", float64(n), "queries"},
			{"baseline execution (mean)", msPer(baseline, n), "ms/query"},
			{"profiled execution, memo miss (mean)", msPer(profiled, n), "ms/query"},
			{"profiler overhead (memo miss)", overheadPct, "%"},
			{"profiled repeat, memo hit (mean)", msPer(hits, n), "ms/query"},
			{"keyword meta-query latency", float64(keywordLatency.Microseconds()) / 1000, "ms"},
			{"kNN meta-query latency", float64(knnLatency.Microseconds()) / 1000, "ms"},
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E5 — adaptive output sampling
// ---------------------------------------------------------------------------

// E5OutputSampling compares the storage footprint of the adaptive sampling
// policy against a fixed policy over a cheap-but-wide and expensive-but-small
// query mix.
func E5OutputSampling(env *Env) (Result, error) {
	run := func(policy profiler.SamplePolicy) (int, int, error) {
		store := storage.NewStore()
		cfg := profiler.DefaultConfig()
		cfg.Sample = policy
		prof := profiler.New(env.Eng, store, cfg)
		queries := []string{
			"SELECT * FROM Observations",                          // cheap, huge output
			"SELECT * FROM WaterTemp",                             // cheap, large output
			"SELECT lake, AVG(temp) FROM WaterTemp GROUP BY lake", // small output
			"SELECT Stars.name, AVG(Observations.flux) AS f FROM Stars, Observations WHERE Stars.star_id = Observations.star_id GROUP BY Stars.name", // expensive, modest output
		}
		totalRows, totalStored := 0, 0
		for _, q := range queries {
			out, err := prof.Submit(profiler.Submission{User: "bench", SQL: q})
			if err != nil {
				return 0, 0, err
			}
			totalRows += out.Result.Cardinality()
			rec, err := store.Get(out.QueryID, admin)
			if err != nil {
				return 0, 0, err
			}
			if rec.Sample != nil {
				totalStored += len(rec.Sample.Rows)
			}
		}
		return totalRows, totalStored, nil
	}
	totalRows, adaptiveStored, err := run(profiler.DefaultSamplePolicy())
	if err != nil {
		return Result{}, err
	}
	_, fixedStored, err := run(profiler.SamplePolicy{Adaptive: false, FixedRows: 500})
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:    "E5",
		Title: "Adaptive output sampling (§4.1)",
		Claim: "sample size should follow execution time: cheap huge outputs need no large sample, expensive small outputs are kept whole",
		Metrics: []Metric{
			{"total result rows produced", float64(totalRows), "rows"},
			{"rows stored (adaptive policy)", float64(adaptiveStored), "rows"},
			{"rows stored (fixed 500-row policy)", float64(fixedStored), "rows"},
			{"adaptive/fixed storage ratio", ratio(adaptiveStored, fixedStored), ""},
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E6 — association mining: batch vs incremental
// ---------------------------------------------------------------------------

// E6AssociationMining compares batch Apriori over every feature transaction
// with the incremental Feed — a per-query Add, then one Refresh deriving the
// rules from the distinct feature sets — on runtime and on recall of the
// batch rules (exact by construction: the two count the same itemsets).
func E6AssociationMining(env *Env) (Result, error) {
	records := env.Sys.Store().Snapshot().Records(admin)
	transactions := make([][]string, 0, len(records))
	for _, r := range records {
		if len(r.Features) > 0 {
			transactions = append(transactions, r.Features)
		}
	}
	cfg := miner.DefaultAssocConfig()

	start := time.Now()
	batch := miner.MineAssociationRules(transactions, cfg)
	batchTime := time.Since(start)

	feed := miner.NewFeed(cfg)
	start = time.Now()
	for _, t := range transactions {
		feed.Add(t)
	}
	addTime := time.Since(start)
	start = time.Now()
	incRules := feed.Refresh().Rules
	deriveTime := time.Since(start)

	batchKeys := map[string]bool{}
	for _, r := range batch {
		batchKeys[r.Key()] = true
	}
	common := 0
	for _, r := range incRules {
		if batchKeys[r.Key()] {
			common++
		}
	}
	return Result{
		ID:    "E6",
		Title: "Association-rule mining: batch vs incremental (§4.3)",
		Claim: "incremental mining is necessary as the query log grows",
		Metrics: []Metric{
			{"transactions", float64(len(transactions)), "queries"},
			{"batch rules", float64(len(batch)), "rules"},
			{"batch mining time", float64(batchTime.Microseconds()) / 1000, "ms"},
			{"incremental per-query add time", msPer(addTime, len(transactions)) * 1000, "us/query"},
			{"incremental rule derivation time", float64(deriveTime.Microseconds()) / 1000, "ms"},
			{"incremental rules", float64(len(incRules)), "rules"},
			{"batch-rule recall by incremental", ratio(common, len(batch)), ""},
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E7 — clustering quality per similarity measure
// ---------------------------------------------------------------------------

// E7Clustering clusters the log with each similarity measure and scores the
// clusters against the ground-truth topics.
func E7Clustering(env *Env) (Result, error) {
	records := env.Sys.Store().Snapshot().Records(admin)
	if len(records) > 400 {
		records = records[:400]
	}
	topicByFingerprint := map[uint64]string{}
	for _, q := range env.Trace.Queries {
		topicByFingerprint[storageFingerprint(q.SQL)] = q.Topic
	}
	metrics := []Metric{{"clustered queries", float64(len(records)), "queries"}}
	for _, m := range []miner.Measure{miner.MeasureFeatures, miner.MeasureTemplate, miner.MeasureText} {
		start := time.Now()
		clusters := miner.KMedoids(records, miner.ClusterConfig{K: 12, Measure: m, MaxIters: 20, Seed: 1})
		elapsed := time.Since(start)
		purity := clusterTopicPurity(records, clusters, topicByFingerprint)
		metrics = append(metrics,
			Metric{fmt.Sprintf("topic purity (%s similarity)", m), purity, ""},
			Metric{fmt.Sprintf("clustering time (%s similarity)", m), float64(elapsed.Microseconds()) / 1000, "ms"},
		)
	}
	return Result{
		ID:      "E7",
		Title:   "Query clustering and similarity-measure ablation (§4.3)",
		Claim:   "similarity must go beyond string similarity; feature/template measures group queries by analysis topic",
		Metrics: metrics,
	}, nil
}

func clusterTopicPurity(records []*storage.QueryRecord, clusters []miner.Cluster, topicOf map[uint64]string) float64 {
	correct, total := 0, 0
	for _, c := range clusters {
		counts := map[string]int{}
		for _, idx := range c.Members {
			topic := topicOf[records[idx].Fingerprint]
			counts[topic]++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		correct += best
		total += len(c.Members)
	}
	return ratio(correct, total)
}

// ---------------------------------------------------------------------------
// E8 — maintenance after schema evolution
// ---------------------------------------------------------------------------

// E8Maintenance applies schema changes to a copy of the environment and
// measures how many queries the maintenance component flags and repairs.
func E8Maintenance(env *Env) (Result, error) {
	// Build an isolated environment so schema evolution does not disturb the
	// other experiments.
	opts := env.Opts
	opts.Users = env.Opts.Users / 2
	if opts.Users == 0 {
		opts.Users = 1
	}
	isolated, err := NewEnv(opts)
	if err != nil {
		return Result{}, err
	}
	eng := isolated.Eng
	store := isolated.Sys.Store()

	// Schema evolution: one rename (repairable), one dropped column and one
	// dropped table (both invalidating).
	eng.MustExecute("ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature")
	eng.MustExecute("ALTER TABLE WaterSalinity DROP COLUMN depth")
	eng.MustExecute("DROP TABLE Sensors")

	m := maintenance.New(eng, store)
	start := time.Now()
	report, err := m.Scan()
	if err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)
	return Result{
		ID:    "E8",
		Title: "Query maintenance after schema evolution (§4.4)",
		Claim: "the CQMS should efficiently identify affected queries, repair what it can and flag the rest",
		Metrics: []Metric{
			{"logged queries scanned", float64(report.Checked), "queries"},
			{"queries repaired (renames)", float64(len(report.Repaired)), "queries"},
			{"queries flagged invalid", float64(len(report.Invalidated)), "queries"},
			{"stale statistics flagged", float64(len(report.StatsFlagged)), "queries"},
			{"statistics refreshed", float64(len(report.StatsRefreshed)), "queries"},
			{"scan time", float64(elapsed.Microseconds()) / 1000, "ms"},
		},
	}, nil
}

// ---------------------------------------------------------------------------
// E9 — query-by-data
// ---------------------------------------------------------------------------

// E9QueryByData reproduces the §2.2 example: find queries whose output
// includes Lake Washington but not Lake Union, and verify that the matched
// queries' predicates are indeed the discriminating ones.
func E9QueryByData(env *Env) (Result, error) {
	q, err := metaquery.ByData([]string{"Lake Washington"}, []string{"Lake Union"})
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	page, err := env.Sys.SearchPage(context.Background(), admin, q, metaquery.Cursor{}, 0)
	if err != nil {
		return Result{}, err
	}
	matches := page.Matches
	elapsed := time.Since(start)

	// Check the matches against their own samples (consistency).
	consistent := 0
	for _, m := range matches {
		hasInclude, hasExclude := false, false
		for _, row := range m.Record.Sample.Rows {
			for _, cell := range row {
				if cell == "Lake Washington" {
					hasInclude = true
				}
				if cell == "Lake Union" {
					hasExclude = true
				}
			}
		}
		if hasInclude && !hasExclude {
			consistent++
		}
	}
	return Result{
		ID:    "E9",
		Title: "Query-by-data (§2.2 example)",
		Claim: "users can find past queries by positive/negative example tuples in their outputs",
		Metrics: []Metric{
			{"matching queries", float64(len(matches)), "queries"},
			{"matches consistent with samples", ratio(consistent, len(matches)), ""},
			{"search latency", float64(elapsed.Microseconds()) / 1000, "ms"},
		},
	}, nil
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func msPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Microseconds()) / 1000 / float64(n)
}

// SortMetrics orders metrics by name (used by tests for stable comparison).
func SortMetrics(ms []Metric) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
}
