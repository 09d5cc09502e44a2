// Package core implements the Collaborative Query Management System itself:
// the component that wires the Query Profiler, Query Storage, Meta-query
// Executor, Query Miner and Query Maintenance of Figure 4 into the four
// interaction modes of §2 — Traditional, Search & Browse, Assisted and
// Administrative.
//
// CQMS is the type downstream users embed: examples/ and cmd/ build on this
// API, and the root package cqms re-exports it.
package core

import (
	"context"
	"fmt"
	"log/slog"
	"runtime/pprof"
	"time"

	"repro/internal/engine"
	"repro/internal/maintenance"
	"repro/internal/metaquery"
	"repro/internal/miner"
	"repro/internal/profiler"
	"repro/internal/recommend"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Config holds the settings a caller chooses. Every other component
// setting is a constant in the package that reads it: a field stays here only
// while two non-test callers set it to different values, or it names the
// deployment (TestConfigSurface lists them).
type Config struct {
	Profiler    profiler.Config
	Recommender recommend.Config
	// Durability persists the query log to disk (segmented WAL + snapshots).
	// Disabled unless Durability.Dir is set; Open and OpenWithEngine recover
	// the store from that directory before serving.
	Durability wal.Config
	// MiningInterval and MaintenanceInterval drive the background scheduler
	// started by StartBackground; Durability.SnapshotEvery drives its
	// snapshot/compaction pass.
	MiningInterval      time.Duration
	MaintenanceInterval time.Duration
	// Metrics receives every component's instruments (storage, WAL, derived
	// state, assisted-mode latency). Nil means New creates a private registry,
	// so instrumentation is always on; embedders who want one registry across
	// several systems (or their own exposition endpoint) pass it in here.
	Metrics *telemetry.Registry
}

// DefaultConfig returns the default settings.
func DefaultConfig() Config {
	return Config{
		Profiler:            profiler.DefaultConfig(),
		Recommender:         recommend.DefaultConfig(),
		MiningInterval:      time.Minute,
		MaintenanceInterval: 5 * time.Minute,
	}
}

// CQMS is the collaborative query management system.
type CQMS struct {
	cfg Config

	eng         *engine.Engine
	store       *storage.Store
	profiler    *profiler.Profiler
	executor    *metaquery.Executor
	recommender *recommend.Recommender
	maintainer  *maintenance.Maintainer

	// stats, minerFeed and sessions are derived-state subscribers on the
	// store's mutation event bus: incrementally maintained aggregates
	// serving the completion hot path and the stats API, the exact
	// multiset of feature sets association rules are derived from, and the
	// live session detector serving session/graph reads without full-log
	// re-segmentation. A snapshot carries none of them: after a snapshot
	// restore each rebuilds from the restored records, which costs about what
	// restoring a serialized copy would.
	stats     *stats.Tracker
	minerFeed *miner.Feed
	sessions  *session.Live

	wal      *wal.Manager      // nil when durability is disabled
	recovery *wal.RecoveryInfo // what Open reconstructed from disk

	// follower is the replication apply-loop state (OpenFollower); nil on a
	// primary. started anchors the uptime reported by the status surfaces.
	follower *followerState
	started  time.Time
	// replStreamBytes counts replication stream bytes (served on a durable
	// primary, consumed on a follower); nil — and safe to Add on — otherwise.
	replStreamBytes *telemetry.Counter

	// metrics is never nil; the assist and search children and miner
	// instruments are cached at construction so hot paths skip the vec lookup.
	metrics        *telemetry.Registry
	assistLatency  map[string]*telemetry.Histogram
	minerPass      *telemetry.Histogram
	minerPasses    *telemetry.Counter
	searchExamined map[string]*telemetry.Histogram // by metaquery.Query.Kind
}

// New creates a CQMS over a fresh embedded engine.
func New(cfg Config) *CQMS {
	return NewWithEngine(engine.New(), cfg)
}

// NewWithEngine creates a CQMS over an existing engine (typically one already
// populated with data by the workload substrate).
func NewWithEngine(eng *engine.Engine, cfg Config) *CQMS {
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	store := storage.NewStore()
	// Instrument the store before the derived-state subscribers attach: bus
	// callback timing is installed at Subscribe time, so a later EnableMetrics
	// would still cover them, but this order means no mutation is ever counted
	// with some subscribers timed and others not.
	store.EnableMetrics(reg)
	// Derived-state subscribers attach before any durability layer opens
	// (OpenWithEngine), so WAL recovery replay flows through them and their
	// counters come back consistent with the recovered store.
	tracker := stats.Attach(store)
	feed := miner.NewFeed(miner.DefaultAssocConfig())
	feed.Attach(store)
	sessions := session.AttachLive(store)
	exec := metaquery.New(store, sessions.SessionOf)
	c := &CQMS{
		cfg:         cfg,
		eng:         eng,
		store:       store,
		profiler:    profiler.New(eng, store, cfg.Profiler),
		executor:    exec,
		recommender: recommend.New(store, exec, tracker, feed.Rules, eng.Catalog(), cfg.Recommender),
		maintainer:  maintenance.New(eng, store),
		stats:       tracker,
		minerFeed:   feed,
		sessions:    sessions,
		metrics:     reg,
		started:     time.Now(),
	}
	c.stats.EnableMetrics(reg)
	c.minerFeed.EnableMetrics(reg)
	c.sessions.EnableMetrics(reg)
	c.profiler.EnableMetrics(reg)
	assist := reg.HistogramVec("cqms_assist_seconds",
		"Assisted-mode (§2.3) request latency by operation.",
		telemetry.DefBuckets, "op")
	c.assistLatency = map[string]*telemetry.Histogram{
		"complete":    assist.With("complete"),
		"corrections": assist.With("corrections"),
		"similar":     assist.With("similar"),
	}
	c.minerPass = reg.Histogram("cqms_miner_pass_seconds",
		"Mining pass duration (RunMiner: the feed's rule derivation).", telemetry.DefBuckets)
	c.minerPasses = reg.Counter("cqms_miner_passes_total",
		"Completed mining passes.")
	examined := reg.HistogramVec("cqms_search_examined_records",
		"Records loaded per search request, by search kind.",
		telemetry.CountBuckets(1, 10, 25, 50, 100, 250, 500, 1000, 10_000, 100_000, 1_000_000), "kind")
	c.searchExamined = make(map[string]*telemetry.Histogram, len(metaquery.Kinds))
	for _, kind := range metaquery.Kinds {
		c.searchExamined[kind] = examined.With(kind)
	}
	return c
}

// Metrics returns the system's telemetry registry (never nil). Embedders can
// register their own instruments on it or write a Prometheus exposition via
// telemetry.Registry.WritePrometheus; the HTTP server serves it at
// GET /v1/metrics.
func (c *CQMS) Metrics() *telemetry.Registry { return c.metrics }

// Open creates a CQMS over a fresh embedded engine and, when
// cfg.Durability.Dir is set, recovers the query log from disk (newest
// snapshot plus WAL tail) and keeps it durable from then on. Close flushes
// and detaches the log.
func Open(cfg Config) (*CQMS, error) {
	return OpenWithEngine(engine.New(), cfg)
}

// OpenWithEngine is Open over an existing (typically pre-populated) engine.
func OpenWithEngine(eng *engine.Engine, cfg Config) (*CQMS, error) {
	c := NewWithEngine(eng, cfg)
	if !cfg.Durability.Enabled() {
		return c, nil
	}
	// The WAL registers its instruments (append/fsync latency, segment and
	// recovery gauges) on the same registry as everything else.
	mgr, recovery, err := wal.Open(c.store, cfg.Durability, c.metrics)
	if err != nil {
		return nil, fmt.Errorf("core: opening durable query log: %w", err)
	}
	c.wal = mgr
	c.recovery = recovery
	// A durable primary can serve the /v1/replication stream.
	c.registerReplMetrics(
		func() float64 { return float64(mgr.LastSeq()) },
		func() float64 { return 0 }) // a primary is never behind itself
	return c, nil
}

// registerReplMetrics registers the cqms_repl_* families. A durable primary
// and a follower both register them, with the same help text, so dashboards
// see one shape; appliedSeq and lag are the role's gauges.
func (c *CQMS) registerReplMetrics(appliedSeq, lag func() float64) {
	c.replStreamBytes = c.metrics.Counter("cqms_repl_stream_bytes_total",
		"Replication stream bytes transferred (served by a primary, consumed by a follower).")
	c.metrics.GaugeFunc("cqms_repl_applied_seq",
		"Highest WAL sequence applied locally (followers: replicated; primary: appended).",
		appliedSeq)
	c.metrics.GaugeFunc("cqms_repl_lag_seconds",
		"Seconds since this follower last had everything the primary reported (0 when caught up).",
		lag)
}

// ReplStreamBytes is the replication stream byte counter: a primary's HTTP
// layer adds bytes served, a follower's apply loop adds bytes consumed. Nil
// (safe to Add on) when this process neither serves nor consumes a stream.
func (c *CQMS) ReplStreamBytes() *telemetry.Counter { return c.replStreamBytes }

// Close flushes the durable query log (a no-op for in-memory systems). The
// CQMS must not be used afterwards.
func (c *CQMS) Close() error {
	if c.wal == nil {
		return nil
	}
	return c.wal.Close()
}

// Durability exposes the WAL manager, or nil when persistence is disabled.
func (c *CQMS) Durability() *wal.Manager { return c.wal }

// Recovery reports what Open reconstructed from disk, or nil when the system
// started fresh or in-memory.
func (c *CQMS) Recovery() *wal.RecoveryInfo { return c.recovery }

// Engine exposes the underlying DBMS (for loading data and DDL in examples
// and tests).
func (c *CQMS) Engine() *engine.Engine { return c.eng }

// Store exposes the query storage.
func (c *CQMS) Store() *storage.Store { return c.store }

// StatsTracker exposes the incrementally maintained, visibility-aware
// query-log aggregates (never nil).
func (c *CQMS) StatsTracker() *stats.Tracker { return c.stats }

// MinerFeed exposes the bus-driven association-rule feed (never nil).
func (c *CQMS) MinerFeed() *miner.Feed { return c.minerFeed }

// ---------------------------------------------------------------------------
// Traditional Interaction Mode (§2.1)
// ---------------------------------------------------------------------------

// Submit executes a user query through the profiler: the query runs on the
// DBMS and is logged with its features, statistics and output sample.
func (c *CQMS) Submit(sub profiler.Submission) (*profiler.Outcome, error) {
	return c.profiler.Submit(sub)
}

// SubmitBatch executes many submissions in one call and commits every
// successfully parsed query to the store under a single commit-lock
// acquisition (storage.PutBatch), amortising the per-write lock round trip
// and WAL ordering cost across the batch. outs[i]/errs[i] mirror Submit's
// return values for subs[i]: a parse error leaves outs[i] nil with errs[i]
// set, while execution errors are reported in-band in the Outcome. A context
// already cancelled on entry aborts before anything executes or commits.
func (c *CQMS) SubmitBatch(ctx context.Context, subs []profiler.Submission) ([]*profiler.Outcome, []error, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	outs, errs := c.profiler.SubmitBatch(subs)
	return outs, errs, nil
}

// ExecuteUnprofiled runs a query directly against the DBMS without logging;
// it exists for the profiling-overhead experiment and for data loading.
func (c *CQMS) ExecuteUnprofiled(query string) (*engine.Result, error) {
	return c.profiler.ExecuteUnprofiled(query)
}

// Annotate attaches an annotation to a logged query.
func (c *CQMS) Annotate(id storage.QueryID, p storage.Principal, ann storage.Annotation) error {
	return c.store.Annotate(id, p, ann)
}

// ---------------------------------------------------------------------------
// Search & Browse Interaction Mode (§2.2)
// ---------------------------------------------------------------------------

// Search performs keyword search over the visible query log and returns the
// whole ranked listing; metaquery.Keywords says which keywords it refuses. A
// cancelled context aborts it.
func (c *CQMS) Search(ctx context.Context, p storage.Principal, keywords ...string) ([]metaquery.Match, error) {
	q, err := metaquery.Keywords(keywords...)
	if err != nil {
		return nil, err
	}
	page, err := c.SearchPage(ctx, p, q, metaquery.Cursor{}, 0)
	return page.Matches, err
}

// SearchSubstring performs substring search over the visible query log and
// returns the whole listing; metaquery.Substring says which it refuses.
func (c *CQMS) SearchSubstring(ctx context.Context, p storage.Principal, substr string) ([]metaquery.Match, error) {
	q, err := metaquery.Substring(substr)
	if err != nil {
		return nil, err
	}
	page, err := c.SearchPage(ctx, p, q, metaquery.Cursor{}, 0)
	return page.Matches, err
}

// SearchPage returns the matches of a search (any metaquery.Query) that
// follow the cursor in (score desc, ID asc) order, at most limit of them
// (limit <= 0: all). The zero cursor starts a listing pinned at the current
// high-water mark; Page.High carries the pin for the cursors of later pages.
// See metaquery.Executor.Page for what a page of each kind costs.
func (c *CQMS) SearchPage(ctx context.Context, p storage.Principal, q metaquery.Query, cur metaquery.Cursor, limit int) (metaquery.Page, error) {
	page, err := c.executor.Page(ctx, p, q, cur, limit)
	c.searchExamined[q.Kind()].ObserveCount(page.Examined)
	return page, err
}

// MetaQuery executes a SQL meta-query over the feature relations (Figure 1)
// and returns its raw result with the matches; metaquery.Feature is the same
// search as a paged Query.
func (c *CQMS) MetaQuery(ctx context.Context, p storage.Principal, metaSQL string) (*engine.Result, []metaquery.Match, error) {
	return c.executor.SQLMetaQuery(ctx, p, metaSQL)
}

// GetQuery returns the current version of one visible logged query without
// cloning it; the record must be treated as read-only.
func (c *CQMS) GetQuery(ctx context.Context, p storage.Principal, id storage.QueryID) (*storage.QueryRecord, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.store.Snapshot().Get(id, p)
}

// HistoryCursor pins one logical history listing: At is the membership
// high-water mark shared by every page, After the last query ID already
// returned. The zero value starts a new listing at the current high-water
// mark.
type HistoryCursor struct {
	At    storage.QueryID
	After storage.QueryID
}

// HistoryPage returns one page (at most limit records; limit <= 0 means
// unbounded) of a user's visible history and the cursor for the next page.
// Pages are served from views pinned at the first page's high-water mark, so
// paginating to exhaustion yields exactly that snapshot's membership — no
// duplicates or gaps under concurrent inserts — at O(log n + page) per page.
func (c *CQMS) HistoryPage(ctx context.Context, p storage.Principal, user string, cur HistoryCursor, limit int) ([]*storage.QueryRecord, HistoryCursor, error) {
	if err := ctx.Err(); err != nil {
		return nil, cur, err
	}
	var view *storage.View
	if cur.At == 0 {
		view = c.store.Snapshot()
		cur.At = view.Limit()
	} else {
		view = c.store.SnapshotAt(cur.At)
	}
	var out []*storage.QueryRecord
	view.ScanByUserAfter(ctx, user, cur.After, p, func(rec *storage.QueryRecord) bool {
		out = append(out, rec)
		return limit <= 0 || len(out) < limit
	})
	if err := ctx.Err(); err != nil {
		return nil, cur, err
	}
	if len(out) > 0 {
		cur.After = out[len(out)-1].ID
	}
	return out, cur, nil
}

// Sessions returns summaries of the live-detected sessions, restricted to
// those whose queries are all visible to the principal. Sessions are
// maintained incrementally off the mutation event bus, so the summaries are
// current as of the last committed query — no mining pass required.
func (c *CQMS) Sessions(ctx context.Context, p storage.Principal) ([]session.Summary, error) {
	return c.SessionsPage(ctx, p, 0, 0)
}

// SessionsPage returns at most limit visible session summaries (limit <= 0
// means unbounded) with ID strictly greater than after, in ascending ID
// order. The set is current as of the last commit. A session keeps its ID
// through every edit of its user's stream; when an out-of-order insert,
// deletion or text repair splits one, the later part takes a new ID, and when
// it merges two, the later session's ID is dropped.
func (c *CQMS) SessionsPage(ctx context.Context, p storage.Principal, after int64, limit int) ([]session.Summary, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.sessions.Summaries(p, after, limit), nil
}

// SessionGraph renders the Figure 2 session window for a detected session.
func (c *CQMS) SessionGraph(ctx context.Context, p storage.Principal, sessionID int64) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	sess, ok, visible := c.sessions.Get(p, sessionID)
	if !ok {
		return "", fmt.Errorf("core: session %d: %w", sessionID, storage.ErrNotFound)
	}
	if !visible {
		return "", fmt.Errorf("core: %w", storage.ErrAccessDenied)
	}
	return session.Render(&sess), nil
}

// SessionCount returns how many sessions the live detector currently tracks
// across all users (regardless of visibility).
func (c *CQMS) SessionCount() int { return c.sessions.Count() }

// SessionOf returns the ID of the live session holding a logged query, or 0
// when the query is no longer in the log. It is current as of the last
// commit, like SessionsPage.
func (c *CQMS) SessionOf(rec *storage.QueryRecord) int64 { return c.sessions.SessionOf(rec) }

// ---------------------------------------------------------------------------
// Assisted Interaction Mode (§2.3)
// ---------------------------------------------------------------------------

// Complete returns completion suggestions (tables, columns, predicates,
// joins) for a partially written query.
func (c *CQMS) Complete(ctx context.Context, p storage.Principal, partialSQL string, k int) ([]recommend.Completion, error) {
	start := time.Now()
	defer func() { c.assistLatency["complete"].Observe(time.Since(start)) }()
	out := c.recommender.Complete(p, partialSQL, k)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SuggestTables returns table suggestions only.
func (c *CQMS) SuggestTables(ctx context.Context, p storage.Principal, partialSQL string, k int) ([]recommend.Completion, error) {
	out := c.recommender.SuggestTables(p, partialSQL, k)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Corrections returns spelling corrections for table and column names.
func (c *CQMS) Corrections(ctx context.Context, p storage.Principal, querySQL string) ([]recommend.Correction, error) {
	start := time.Now()
	defer func() { c.assistLatency["corrections"].Observe(time.Since(start)) }()
	out := c.recommender.Corrections(ctx, p, querySQL)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// EmptyResultSuggestions suggests alternative predicates for a query that
// returned no rows.
func (c *CQMS) EmptyResultSuggestions(ctx context.Context, p storage.Principal, querySQL string, k int) ([]recommend.Correction, error) {
	return c.recommender.EmptyResultSuggestions(ctx, p, querySQL, k)
}

// SimilarQueries returns the Figure 3 similar-queries pane for a query.
func (c *CQMS) SimilarQueries(ctx context.Context, p storage.Principal, querySQL string, k int) ([]recommend.SimilarQuery, error) {
	start := time.Now()
	defer func() { c.assistLatency["similar"].Observe(time.Since(start)) }()
	return c.recommender.SimilarQueries(ctx, p, querySQL, k)
}

// AssistPane renders the full Figure 3 pane (completions + similar queries)
// for a partial query.
func (c *CQMS) AssistPane(ctx context.Context, p storage.Principal, partialSQL string, k int) (string, error) {
	completions, err := c.Complete(ctx, p, partialSQL, k)
	if err != nil {
		return "", err
	}
	similar, err := c.recommender.SimilarQueries(ctx, p, partialSQL, k)
	if err != nil {
		return "", err
	}
	return recommend.RenderAssistPane(completions, similar), nil
}

// Tutorial generates the data-set tutorial of §2.3.
func (c *CQMS) Tutorial(ctx context.Context, p storage.Principal, queriesPerTable int) ([]recommend.TutorialStep, error) {
	out := c.recommender.Tutorial(ctx, p, queriesPerTable)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Administrative Interaction Mode (§2.4) and background processing
// ---------------------------------------------------------------------------

// SetVisibility changes a query's visibility (owner or admin only).
func (c *CQMS) SetVisibility(id storage.QueryID, p storage.Principal, v storage.Visibility) error {
	return c.store.SetVisibility(id, p, v)
}

// DeleteQuery removes a query from the log (owner or admin only).
func (c *CQMS) DeleteQuery(id storage.QueryID, p storage.Principal) error {
	return c.store.Delete(id, p)
}

// RunMiner performs one mining pass, timed and counted: the feed re-derives
// its association rules (Feed.Refresh), which the recommender reads from then
// on. Itemset counting, session detection and popularity are not part of it —
// the feed, the live detector and the stats tracker keep them current off the
// mutation bus — and the pass writes nothing to the log, so a primary and a
// read-only replica run the same pass.
func (c *CQMS) RunMiner() *miner.Result {
	start := time.Now()
	defer func() {
		c.minerPass.Observe(time.Since(start))
		c.minerPasses.Inc()
	}()
	return c.minerFeed.Refresh()
}

// RunMaintenance performs one maintenance scan.
func (c *CQMS) RunMaintenance() (*maintenance.Report, error) {
	return c.maintainer.Scan()
}

// StartBackground launches the periodic miner and maintenance passes (the
// "run in the background" components of Figure 4) and, when durability is
// enabled, the periodic snapshot/compaction pass, until the context is
// cancelled. It returns immediately.
func (c *CQMS) StartBackground(ctx context.Context) {
	mineEvery := c.cfg.MiningInterval
	if mineEvery <= 0 {
		mineEvery = time.Minute
	}
	maintainEvery := c.cfg.MaintenanceInterval
	if maintainEvery <= 0 {
		maintainEvery = 5 * time.Minute
	}
	go every(ctx, mineEvery, "mine", func() { c.RunMiner() })
	// Maintenance repairs by writing (MarkInvalid, ReplaceText, …); on a
	// read-only replica those repairs replicate in from the primary instead.
	if !c.store.ReadOnly() {
		go every(ctx, maintainEvery, "maintain", func() {
			// A failed pass is retried on the next tick.
			if _, err := c.RunMaintenance(); err != nil {
				slog.Warn("maintenance pass failed", "err", err)
			}
		})
	}
	if c.wal != nil && c.cfg.Durability.SnapshotEvery > 0 {
		go every(ctx, c.cfg.Durability.SnapshotEvery, "snapshot", func() {
			// A failed snapshot is retried on the next tick; the WAL itself
			// keeps every mutation in the meantime.
			if err := c.wal.MaybeSnapshot(); err != nil {
				slog.Warn("snapshot pass failed", "err", err)
			}
		})
	}
}

// every runs pass once per interval d until ctx is cancelled, under one
// label set (route=background, stage), so a served CPU profile isolates
// each pass with a single -tagfocus.
func every(ctx context.Context, d time.Duration, stage string, pass func()) {
	ticker := time.NewTicker(d)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			pprof.Do(ctx, pprof.Labels("route", "background", "stage", stage), func(context.Context) { pass() })
		}
	}
}
