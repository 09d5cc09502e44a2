// Package profiler implements the CQMS Query Profiler (Figure 4): the online
// component that receives user SQL, forwards it to the underlying DBMS and,
// before doing so, logs the query — its text, syntactic features, runtime
// statistics and a bounded sample of its output — in the Query Storage.
//
// The paper's key requirements for this component (§2.1, §4.1) are that it
// must not impose significant runtime overhead, and that output samples must
// be sized adaptively: a query that runs for two hours and outputs ten rows
// should have its whole output stored, while a two-second query producing
// two million rows needs no large sample. SamplePolicy implements that rule.
package profiler

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// The adaptive sample budget: a cheap query keeps minSampleRows rows, and
// every timePerExtraRow of execution time buys one more, up to maxSampleRows.
const (
	minSampleRows   = 5
	maxSampleRows   = 500
	timePerExtraRow = 2 * time.Millisecond
)

// annotationTableThreshold is the number of referenced tables at which the
// profiler suggests that the user annotate the query (§2.1: the CQMS should
// request annotations for complex queries). A nested query is always
// prompted for.
const annotationTableThreshold = 3

// SamplePolicy controls how many output rows the profiler stores for a query
// (§4.1 "Profiling query results").
type SamplePolicy struct {
	// Adaptive enables the execution-time-proportional budget. When false,
	// every query stores at most FixedRows rows.
	Adaptive bool
	// FixedRows is the sample cap used when Adaptive is false.
	FixedRows int
}

// DefaultSamplePolicy mirrors the paper's example: cheap queries keep a small
// sample, expensive queries may store their entire (small) output.
func DefaultSamplePolicy() SamplePolicy {
	return SamplePolicy{Adaptive: true, FixedRows: 20}
}

// Budget returns the number of output rows to store for a query with the
// given execution time.
func (p SamplePolicy) Budget(execTime time.Duration) int {
	if !p.Adaptive {
		return p.FixedRows
	}
	extra := max(0, int(execTime/timePerExtraRow))
	return min(minSampleRows+extra, maxSampleRows)
}

// Config configures a Profiler.
type Config struct {
	// Sample is the output sampling policy.
	Sample SamplePolicy
	// CaptureParseErrors logs statements whose text fails to parse as raw
	// records (storage.NewRawRecord: raw text, parse-free template and
	// fingerprint, the parse_error feature class) instead of rejecting them.
	// Passive capture paths (the wire-protocol proxy) enable this so no
	// observed statement is silently dropped; the HTTP API keeps it off by
	// default, preserving the v1 contract that unparsable SQL is an
	// invalid_argument error.
	CaptureParseErrors bool
}

// DefaultConfig returns the default profiler configuration.
func DefaultConfig() Config {
	return Config{Sample: DefaultSamplePolicy()}
}

// Submission is one user query entering the CQMS in Traditional Interaction
// Mode.
type Submission struct {
	User       string
	Group      string
	Visibility storage.Visibility
	SQL        string
	// IssuedAt defaults to the current time; the workload generator sets it
	// explicitly to replay historical traces.
	IssuedAt time.Time
}

// Outcome is what the profiler returns to the client: the statement's
// Answer, the logged record's ID and whether the CQMS suggests annotating
// the query.
type Outcome struct {
	// Result is nil when the statement did not run (ExecError is set).
	Result            *Answer
	QueryID           storage.QueryID
	SuggestAnnotation bool
	// ExecError holds the DBMS execution error, if any. The query is still
	// logged (with the error recorded as a runtime feature) so that the
	// correction assistant can learn from failing queries.
	ExecError error
}

// Profiler forwards queries to the engine and logs them in the store.
type Profiler struct {
	eng   *engine.Engine
	store *storage.Store
	cfg   Config
	clock func() time.Time

	// parseErrors counts parse failures by outcome ("captured": logged as a
	// raw record under CaptureParseErrors; "rejected": returned as an
	// error). Nil until EnableMetrics runs.
	parseErrCaptured *telemetry.Counter
	parseErrRejected *telemetry.Counter

	// The engine.execute stage of a submission: how long the DBMS took and
	// how many rows it returned. Nil (and inert) until EnableMetrics runs.
	execSeconds *telemetry.Histogram
	resultRows  *telemetry.Histogram

	memo *memo
}

// New returns a profiler over the given engine and store.
func New(eng *engine.Engine, store *storage.Store, cfg Config) *Profiler {
	return &Profiler{eng: eng, store: store, cfg: cfg, clock: time.Now, memo: newMemo()}
}

// EnableMetrics registers the profiler's instruments on reg:
// cqms_profiler_parse_errors_total{outcome="captured"|"rejected"} counts
// submissions whose text failed to parse, split by whether the raw-capture
// fallback logged them anyway; cqms_engine_execute_seconds and
// cqms_engine_result_rows are the engine-execution stage of every statement
// that ran — the stage the repository benchmark traces as engine.execute_us
// and BenchmarkEngineExecute measures alone; a SELECT the memo answered did
// not run. cqms_profiler_memo_total{outcome="hit"|"miss"|"evict"} counts the
// memo's lookups by outcome and the entries its bounds evicted, and
// cqms_profiler_memo_bytes is what its entries hold.
func (p *Profiler) EnableMetrics(reg *telemetry.Registry) {
	p.execSeconds = reg.Histogram("cqms_engine_execute_seconds",
		"Engine execution time of one submitted statement (parse and logging excluded).", nil)
	p.resultRows = reg.Histogram("cqms_engine_result_rows",
		"Rows returned by one executed statement (le=\"100\" = results of up to 100 rows); the cardinality the profiler logs.",
		telemetry.CountBuckets(0, 1, 10, 50, 100, 500, 1000, 5000, 10_000, 100_000, 1_000_000))
	vec := reg.CounterVec("cqms_profiler_parse_errors_total",
		"Submissions whose SQL failed to parse, by outcome (captured: logged as a raw record; rejected: returned as an error).",
		"outcome")
	p.parseErrCaptured = vec.With("captured")
	p.parseErrRejected = vec.With("rejected")
	memoVec := reg.CounterVec("cqms_profiler_memo_total",
		"SELECT answers looked up in the profiler's memo (hit: answered without executing; miss: executed) and entries its bounds evicted (evict).",
		"outcome")
	p.memo.hits, p.memo.misses, p.memo.evictions = memoVec.With("hit"), memoVec.With("miss"), memoVec.With("evict")
	reg.GaugeFunc("cqms_profiler_memo_bytes",
		"Bytes the profiler's memo holds: statement text, column names and rendered rows, string and row headers included.",
		func() float64 { return float64(p.memo.size()) })
}

// countParseError records one parse failure.
func (p *Profiler) countParseError(captured bool) {
	if p.parseErrCaptured == nil {
		return
	}
	if captured {
		p.parseErrCaptured.Inc()
	} else {
		p.parseErrRejected.Inc()
	}
}

// SetClock overrides the profiler's time source.
func (p *Profiler) SetClock(now func() time.Time) { p.clock = now }

// notLogged wraps the store's reason for not logging (or not durably
// logging) a submission's record.
func notLogged(err error) error { return fmt.Errorf("profiler: query not logged: %w", err) }

// prepare is the one submission body: parse the text once, build the record
// on the statement's shape — the store's, when it already holds the text, so
// a repeated statement is not printed or analysed again — execute that same
// statement, and fill in the runtime statistics, the output sample and the
// annotation prompt. A SELECT the memo answered at the catalog's current data
// epoch is not executed: its record logs the producing execution's statistics
// and sample. The caller commits the record — Submit with Put, SubmitBatch
// with PutBatch — sets the Outcome's QueryID, and hands fresh, the new answer
// of a SELECT (or nil), to remember. An unparsable statement is an error
// unless CaptureParseErrors is on, in which case it becomes a raw record that
// is never executed, with the parse error in the Outcome.
func (p *Profiler) prepare(sub Submission) (rec *storage.QueryRecord, out *Outcome, fresh *memoEntry, err error) {
	out = &Outcome{}
	stmt, err := sql.Parse(sub.SQL)
	switch {
	case err == nil:
		rec = &storage.QueryRecord{QueryShape: p.store.ShapeOf(stmt, sub.SQL), Valid: true}
	case p.cfg.CaptureParseErrors:
		p.countParseError(true)
		rec = storage.NewRawRecord(sub.SQL, err)
		out.ExecError = err
	default:
		p.countParseError(false)
		return nil, nil, nil, fmt.Errorf("profiler: parsing query: %w", err)
	}
	rec.User = sub.User
	rec.Group = sub.Group
	rec.Visibility = sub.Visibility
	rec.IssuedAt = sub.IssuedAt
	if rec.IssuedAt.IsZero() {
		rec.IssuedAt = p.clock()
	}
	var (
		ans    Answer
		sample *storage.OutputSample
	)
	if rec.Valid {
		out.SuggestAnnotation = p.shouldSuggestAnnotation(stmt, rec)
		_, isSelect := stmt.(*sql.SelectStmt)
		epoch := p.eng.Catalog().Epoch()
		var hit *memoEntry
		if isSelect {
			hit = p.memo.get(sub.SQL, epoch)
		}
		if hit != nil {
			ans, sample = hit.answer, hit.sample
		} else if res, execErr := p.eng.ExecuteStmt(stmt); execErr != nil {
			out.ExecError = execErr
		} else {
			p.execSeconds.Observe(res.Elapsed)
			p.resultRows.ObserveCount(res.Cardinality())
			ans, sample = p.render(res)
			if isSelect {
				fresh = newMemoEntry(sub.SQL, epoch, ans, sample)
			}
		}
	}
	rec.Stats = storage.RuntimeStats{
		SchemaVersion: p.eng.Catalog().Version(),
		ExecutedAt:    rec.IssuedAt,
	}
	switch {
	case !rec.Valid:
		rec.Stats.Error = rec.InvalidReason
	case out.ExecError != nil:
		rec.Stats.Error = out.ExecError.Error()
	default:
		a := ans // the caller's own struct; its slices stay shared
		out.Result = &a
		rec.Stats.ExecTime = ans.Elapsed
		rec.Stats.ResultRows = ans.RowCount
		rec.Stats.ResultColumns = len(ans.Columns)
		rec.Sample = sample
	}
	return rec, out, fresh, nil
}

// remember stores a fresh SELECT answer whose record committed, with the
// sample the store interned for it, so that a repeat passes the commit path's
// pointer check instead of hashing and comparing it.
func (p *Profiler) remember(fresh *memoEntry, rec *storage.QueryRecord) {
	if fresh != nil {
		fresh.sample = rec.Sample
		p.memo.put(fresh)
	}
}

// Submit executes the query and logs it. Parse errors are returned without
// logging (the text never became a query) unless CaptureParseErrors is on,
// in which case the text is logged as a raw record with the parse error in
// the Outcome; execution errors are always logged with the error recorded
// and returned in the Outcome. On a read-only store nothing runs: the error
// wraps storage.ErrReadOnly. A record the store does not take is an error
// wrapping the store's (storage.ErrTooLarge, storage.ErrNotDurable).
func (p *Profiler) Submit(sub Submission) (*Outcome, error) {
	if p.store.ReadOnly() {
		return nil, notLogged(storage.ErrReadOnly)
	}
	rec, out, fresh, err := p.prepare(sub)
	if err != nil {
		return nil, err
	}
	if out.QueryID, err = p.store.Put(rec); err != nil {
		return nil, notLogged(err)
	}
	p.remember(fresh, rec)
	return out, nil
}

// SubmitBatch executes many submissions and logs every successfully parsed
// one under a single storage commit-lock acquisition (storage.PutBatch),
// amortising the per-write lock round trip that Submit pays once per query.
// outs[i] and errs[i] mirror Submit's return values for subs[i]: a parse
// error leaves outs[i] nil with errs[i] set, and so does a record the store
// does not take; execution errors are reported in-band in the Outcome and
// still logged. Queries execute in slice order, so DDL earlier in the batch
// is visible to later entries.
func (p *Profiler) SubmitBatch(subs []Submission) (outs []*Outcome, errs []error) {
	outs = make([]*Outcome, len(subs))
	errs = make([]error, len(subs))
	if p.store.ReadOnly() {
		for i := range errs {
			errs[i] = notLogged(storage.ErrReadOnly)
		}
		return outs, errs
	}
	recs := make([]*storage.QueryRecord, 0, len(subs))
	fresh := make([]*memoEntry, 0, len(subs))
	logged := make([]int, 0, len(subs)) // recs[j] belongs to subs[logged[j]]
	for i, sub := range subs {
		rec, out, f, err := p.prepare(sub)
		if outs[i], errs[i] = out, err; err == nil {
			recs = append(recs, rec)
			fresh = append(fresh, f)
			logged = append(logged, i)
		}
	}
	ids, putErrs := p.store.PutBatch(recs)
	for j, i := range logged {
		if putErrs != nil && putErrs[j] != nil {
			outs[i], errs[i] = nil, notLogged(putErrs[j])
			continue
		}
		outs[i].QueryID = ids[j]
		p.remember(fresh[j], recs[j])
	}
	return outs, errs
}

// ExecuteUnprofiled runs the query directly against the engine without any
// logging. It is the baseline for the profiling-overhead experiment (E4).
func (p *Profiler) ExecuteUnprofiled(query string) (*engine.Result, error) {
	return p.eng.Execute(query)
}

// shouldSuggestAnnotation applies §2.1's rule: prompt for documentation when
// the query is complex (many tables or nesting).
func (p *Profiler) shouldSuggestAnnotation(stmt sql.Statement, rec *storage.QueryRecord) bool {
	if len(rec.Tables) >= annotationTableThreshold {
		return true
	}
	sel, ok := stmt.(*sql.SelectStmt)
	return ok && len(sql.Subqueries(sel)) > 0
}
