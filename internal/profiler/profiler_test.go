package profiler

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
)

func newTestEngine(t testing.TB) *engine.Engine {
	t.Helper()
	e := engine.New()
	setup := []string{
		"CREATE TABLE WaterTemp (id INT, lake TEXT, loc_x INT, temp FLOAT)",
		"CREATE TABLE WaterSalinity (id INT, lake TEXT, loc_x INT, salinity FLOAT)",
		"INSERT INTO WaterTemp VALUES (1, 'Lake Washington', 10, 14.5), (2, 'Lake Union', 11, 19.0), (3, 'Lake Sammamish', 12, 17.2)",
		"INSERT INTO WaterSalinity VALUES (1, 'Lake Washington', 10, 2.5), (2, 'Lake Union', 11, 3.1)",
	}
	for _, s := range setup {
		e.MustExecute(s)
	}
	return e
}

func newProfiler(t testing.TB) (*Profiler, *storage.Store) {
	t.Helper()
	store := storage.NewStore()
	p := New(newTestEngine(t), store, DefaultConfig())
	return p, store
}

func TestSubmitLogsQueryAndReturnsResult(t *testing.T) {
	p, store := newProfiler(t)
	out, err := p.Submit(Submission{
		User: "alice", Group: "limnology", Visibility: storage.VisibilityGroup,
		SQL: "SELECT lake, temp FROM WaterTemp WHERE temp < 18",
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if out.ExecError != nil {
		t.Fatalf("unexpected exec error: %v", out.ExecError)
	}
	if out.Result.Cardinality() != 2 {
		t.Errorf("result rows = %d, want 2", out.Result.Cardinality())
	}
	if store.Count() != 1 {
		t.Fatalf("store count = %d, want 1", store.Count())
	}
	rec, err := store.Get(out.QueryID, storage.Principal{User: "alice"})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if rec.Stats.ResultRows != 2 || rec.Stats.ResultColumns != 2 {
		t.Errorf("stats = %+v", rec.Stats)
	}
	if rec.Stats.ExecTime <= 0 {
		t.Errorf("exec time not recorded")
	}
	if rec.Sample == nil || rec.Sample.TotalRows != 2 {
		t.Errorf("sample = %+v", rec.Sample)
	}
	if len(rec.Tables) != 1 || rec.Tables[0] != "WaterTemp" {
		t.Errorf("features not extracted: %+v", rec.Tables)
	}
}

func TestSubmitParseErrorNotLogged(t *testing.T) {
	p, store := newProfiler(t)
	if _, err := p.Submit(Submission{User: "alice", SQL: "SELEKT * FROM t"}); err == nil {
		t.Fatal("expected parse error")
	}
	if store.Count() != 0 {
		t.Errorf("parse errors should not be logged")
	}
}

func TestSubmitExecErrorStillLogged(t *testing.T) {
	p, store := newProfiler(t)
	out, err := p.Submit(Submission{User: "alice", SQL: "SELECT * FROM NoSuchTable"})
	if err != nil {
		t.Fatalf("Submit should not fail for execution errors: %v", err)
	}
	if out.ExecError == nil {
		t.Fatal("expected an execution error in the outcome")
	}
	if store.Count() != 1 {
		t.Fatalf("failing query should still be logged")
	}
	rec, _ := store.Get(out.QueryID, storage.Principal{User: "alice"})
	if rec.Stats.Error == "" || !strings.Contains(rec.Stats.Error, "table not found") {
		t.Errorf("stats error = %q", rec.Stats.Error)
	}
	if rec.Sample != nil {
		t.Errorf("failed queries should have no output sample")
	}
}

func TestAnnotationSuggestions(t *testing.T) {
	p, _ := newProfiler(t)
	// Simple single-table query: no suggestion.
	out, err := p.Submit(Submission{User: "alice", SQL: "SELECT temp FROM WaterTemp"})
	if err != nil {
		t.Fatal(err)
	}
	if out.SuggestAnnotation {
		t.Errorf("simple query should not prompt for annotation")
	}
	// A query with a nested sub-query prompts for annotation (§2.1).
	out, err = p.Submit(Submission{User: "alice",
		SQL: "SELECT lake FROM WaterTemp WHERE temp > (SELECT AVG(temp) FROM WaterTemp)"})
	if err != nil {
		t.Fatal(err)
	}
	if !out.SuggestAnnotation {
		t.Errorf("nested query should prompt for annotation")
	}
	// A three-table query prompts for annotation.
	p.eng.MustExecute("CREATE TABLE CityLocations (city TEXT, loc_x INT)")
	out, err = p.Submit(Submission{User: "alice",
		SQL: "SELECT * FROM WaterTemp, WaterSalinity, CityLocations"})
	if err != nil {
		t.Fatal(err)
	}
	if !out.SuggestAnnotation {
		t.Errorf("wide join should prompt for annotation")
	}
}

func TestSamplePolicyFixed(t *testing.T) {
	pol := SamplePolicy{Adaptive: false, FixedRows: 7}
	if got := pol.Budget(time.Hour); got != 7 {
		t.Errorf("fixed budget = %d, want 7", got)
	}
	if got := pol.Budget(0); got != 7 {
		t.Errorf("fixed budget = %d, want 7", got)
	}
}

func TestSamplePolicyAdaptive(t *testing.T) {
	pol := DefaultSamplePolicy()
	if got := pol.Budget(0); got != minSampleRows {
		t.Errorf("zero-time budget = %d, want %d", got, minSampleRows)
	}
	if got := pol.Budget(40 * time.Millisecond); got != 25 {
		t.Errorf("40ms budget = %d, want 25", got)
	}
	// The paper's example: a two-hour query may store its whole (small)
	// output; the budget saturates at maxSampleRows.
	if got := pol.Budget(2 * time.Hour); got != maxSampleRows {
		t.Errorf("expensive-query budget = %d, want %d", got, maxSampleRows)
	}
}

func TestAdaptiveSamplingAppliedToOutput(t *testing.T) {
	store := storage.NewStore()
	eng := newTestEngine(t)
	// Insert many rows so the result exceeds the minimum budget.
	for i := 0; i < 300; i++ {
		eng.MustExecute("INSERT INTO WaterTemp VALUES (99, 'Bulk Lake', 50, 10.0)")
	}
	p := New(eng, store, DefaultConfig())
	out, err := p.Submit(Submission{User: "alice", SQL: "SELECT * FROM WaterTemp"})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := store.Get(out.QueryID, storage.Principal{User: "alice"})
	// The query is fast, so only the few rows its run time buys are kept
	// even though the result has 300+ rows.
	want := DefaultSamplePolicy().Budget(out.Result.Elapsed)
	if len(rec.Sample.Rows) != want || want >= out.Result.Cardinality() {
		t.Errorf("sample rows = %d, want the %v run's budget %d, below %d rows",
			len(rec.Sample.Rows), out.Result.Elapsed, want, out.Result.Cardinality())
	}
	if !rec.Sample.Truncated {
		t.Errorf("sample should be marked truncated")
	}
	if rec.Sample.TotalRows != out.Result.Cardinality() {
		t.Errorf("TotalRows = %d, want %d", rec.Sample.TotalRows, out.Result.Cardinality())
	}
}

func TestFullOutputKeptWhenWithinBudget(t *testing.T) {
	p, store := newProfiler(t)
	out, err := p.Submit(Submission{User: "alice", SQL: "SELECT * FROM WaterTemp"})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := store.Get(out.QueryID, storage.Principal{User: "alice"})
	if rec.Sample.Truncated {
		t.Errorf("small result should not be truncated")
	}
	if len(rec.Sample.Rows) != 3 {
		t.Errorf("sample rows = %d, want 3", len(rec.Sample.Rows))
	}
}

func TestSchemaVersionRecorded(t *testing.T) {
	p, store := newProfiler(t)
	before, _ := p.Submit(Submission{User: "alice", SQL: "SELECT temp FROM WaterTemp"})
	p.eng.MustExecute("ALTER TABLE WaterTemp ADD COLUMN sensor TEXT")
	after, _ := p.Submit(Submission{User: "alice", SQL: "SELECT temp FROM WaterTemp"})
	recBefore, _ := store.Get(before.QueryID, storage.Principal{User: "alice"})
	recAfter, _ := store.Get(after.QueryID, storage.Principal{User: "alice"})
	if recAfter.Stats.SchemaVersion <= recBefore.Stats.SchemaVersion {
		t.Errorf("schema version should increase after DDL: %d vs %d",
			recBefore.Stats.SchemaVersion, recAfter.Stats.SchemaVersion)
	}
}

func TestIssuedAtOverride(t *testing.T) {
	p, store := newProfiler(t)
	ts := time.Date(2009, 1, 5, 10, 0, 0, 0, time.UTC)
	out, err := p.Submit(Submission{User: "alice", SQL: "SELECT temp FROM WaterTemp", IssuedAt: ts})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := store.Get(out.QueryID, storage.Principal{User: "alice"})
	if !rec.IssuedAt.Equal(ts) {
		t.Errorf("IssuedAt = %v, want %v", rec.IssuedAt, ts)
	}
}

func TestExecuteUnprofiledDoesNotLog(t *testing.T) {
	p, store := newProfiler(t)
	if _, err := p.ExecuteUnprofiled("SELECT temp FROM WaterTemp"); err != nil {
		t.Fatal(err)
	}
	if store.Count() != 0 {
		t.Errorf("unprofiled execution should not log")
	}
}

// TestSubmitReportsARecordTheStoreRefused: a query whose record outgrows
// storage.MaxRecordBytes is not logged, and the submitter is told so; the
// rest of a batch is unaffected.
func TestSubmitReportsARecordTheStoreRefused(t *testing.T) {
	p, store := newProfiler(t)
	ident := strings.Repeat("a", storage.MaxRecordBytes/28)
	giant := "SELECT " + ident + " FROM " + ident + " WHERE " + ident + " = 1 GROUP BY " + ident
	if out, err := p.Submit(Submission{User: "alice", SQL: giant}); !errors.Is(err, storage.ErrTooLarge) || out != nil {
		t.Fatalf("Submit = %+v, %v; want ErrTooLarge", out, err)
	}
	outs, errs := p.SubmitBatch([]Submission{
		{User: "alice", SQL: "SELECT lake FROM WaterTemp"},
		{User: "alice", SQL: giant},
		{User: "alice", SQL: "SELECT temp FROM WaterTemp"},
	})
	if !errors.Is(errs[1], storage.ErrTooLarge) || outs[1] != nil {
		t.Fatalf("batch entry 1 = %+v, %v; want ErrTooLarge", outs[1], errs[1])
	}
	if errs[0] != nil || errs[2] != nil || outs[0].QueryID != 1 || outs[2].QueryID != 2 || store.Count() != 2 {
		t.Fatalf("the rest of the batch: errs %v, %v; %d stored", errs[0], errs[2], store.Count())
	}
}

// TestSubmitAndBatchAgree: Submit and SubmitBatch are one submission body
// committed two ways, so a statement submitted alone and the same statement
// submitted as a batch must leave identical records and return identical
// outcomes — whatever becomes of it. Only the measured execution time may
// differ; it is zeroed before comparing.
func TestSubmitAndBatchAgree(t *testing.T) {
	ident := strings.Repeat("a", storage.MaxRecordBytes/28)
	cases := []struct {
		name    string
		capture bool
		sqls    []string
	}{
		{"parsed select", false, []string{"SELECT lake, temp FROM WaterTemp WHERE temp < 18"}},
		{"nested select", false, []string{"SELECT lake FROM WaterTemp WHERE id IN (SELECT id FROM WaterSalinity)"}},
		{"execution error", false, []string{"SELECT nope FROM Missing"}},
		{"parse error rejected", false, []string{"VACUUM ANALYZE WaterTemp"}},
		{"parse error captured", true, []string{"VACUUM ANALYZE WaterTemp"}},
		{"nesting limit captured", true, []string{"SELECT " + strings.Repeat("(", 2000) + "1" + strings.Repeat(")", 2000)}},
		{"too large for the store", false, []string{"SELECT " + ident + " FROM " + ident + " WHERE " + ident + " = 1 GROUP BY " + ident}},
		{"ddl visible to later items", false, []string{
			"CREATE TABLE Depths (id INT, depth FLOAT)",
			"INSERT INTO Depths VALUES (1, 3.5), (2, 9.25)",
			"SELECT depth FROM Depths WHERE depth > 4",
			"SELECT * FROM WaterTemp WHERE",
			"DROP TABLE Depths",
			"SELECT depth FROM Depths",
		}},
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.CaptureParseErrors = tc.capture
			single := New(newTestEngine(t), storage.NewStore(), cfg)
			batch := New(newTestEngine(t), storage.NewStore(), cfg)
			single.SetClock(func() time.Time { return at })
			batch.SetClock(func() time.Time { return at })

			subs := make([]Submission, len(tc.sqls))
			for i, s := range tc.sqls {
				subs[i] = Submission{User: "alice", Group: "limnology", Visibility: storage.VisibilityGroup, SQL: s}
			}
			outs, errs := batch.SubmitBatch(subs)
			for i, sub := range subs {
				out, err := single.Submit(sub)
				if (err == nil) != (errs[i] == nil) || (err != nil && err.Error() != errs[i].Error()) {
					t.Fatalf("item %d: Submit error %v, SubmitBatch error %v", i, err, errs[i])
				}
				if errors.Is(err, storage.ErrTooLarge) != errors.Is(errs[i], storage.ErrTooLarge) {
					t.Fatalf("item %d: errors wrap differently: %v vs %v", i, err, errs[i])
				}
				for _, o := range []*Outcome{out, outs[i]} {
					if o != nil && o.Result != nil {
						o.Result.Elapsed = 0
					}
				}
				if !reflect.DeepEqual(out, outs[i]) {
					t.Errorf("item %d outcomes differ\n  Submit: %+v\n   batch: %+v", i, out, outs[i])
				}
			}
			admin := storage.Principal{Admin: true}
			a, b := single.store.Snapshot().Records(admin), batch.store.Snapshot().Records(admin)
			if len(a) != len(b) {
				t.Fatalf("Submit logged %d records, SubmitBatch %d", len(a), len(b))
			}
			for i := range a {
				ra, rb := a[i].Clone(), b[i].Clone()
				ra.Stats.ExecTime, rb.Stats.ExecTime = 0, 0
				if !reflect.DeepEqual(ra, rb) {
					t.Errorf("record %d differs\n  Submit: %+v\n   batch: %+v", i, ra, rb)
				}
			}
		})
	}
}
