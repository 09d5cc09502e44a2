package maintenance

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/profiler"
	"repro/internal/storage"
)

var admin = storage.Principal{Admin: true}

// fixture builds an engine with the lakes schema, a profiler and a set of
// logged queries.
func fixture(t testing.TB) (*engine.Engine, *storage.Store, *profiler.Profiler) {
	t.Helper()
	eng := engine.New()
	setup := []string{
		"CREATE TABLE WaterTemp (id INT, lake TEXT, loc_x INT, temp FLOAT)",
		"CREATE TABLE WaterSalinity (id INT, lake TEXT, loc_x INT, salinity FLOAT)",
		"CREATE TABLE CityLocations (city TEXT, state TEXT, loc_x INT)",
		"INSERT INTO WaterTemp VALUES (1, 'Lake Washington', 10, 14.5), (2, 'Lake Union', 11, 19.0)",
		"INSERT INTO WaterSalinity VALUES (1, 'Lake Washington', 10, 2.5)",
		"INSERT INTO CityLocations VALUES ('Seattle', 'WA', 10)",
	}
	for _, s := range setup {
		eng.MustExecute(s)
	}
	store := storage.NewStore()
	p := profiler.New(eng, store, profiler.DefaultConfig())
	submit := func(q string) {
		if _, err := p.Submit(profiler.Submission{User: "alice", Visibility: storage.VisibilityPublic, SQL: q}); err != nil {
			t.Fatalf("Submit(%q): %v", q, err)
		}
	}
	submit("SELECT temp FROM WaterTemp WHERE temp < 18")
	submit("SELECT lake, temp FROM WaterTemp ORDER BY temp")
	submit("SELECT salinity FROM WaterSalinity WHERE salinity > 2")
	submit("SELECT WaterTemp.temp, CityLocations.city FROM WaterTemp, CityLocations WHERE WaterTemp.loc_x = CityLocations.loc_x")
	return eng, store, p
}

func TestScanAllValid(t *testing.T) {
	eng, store, _ := fixture(t)
	m := New(eng, store)
	report, err := m.Scan()
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if report.Checked != 4 {
		t.Errorf("checked = %d, want 4", report.Checked)
	}
	if len(report.Invalidated) != 0 || len(report.Repaired) != 0 {
		t.Errorf("nothing should be invalid on an unchanged schema: %+v", report)
	}
}

// countOps subscribes to the store's bus and returns the running count of
// committed mutations by op.
func countOps(store *storage.Store) map[storage.MutationOp]int {
	ops := make(map[storage.MutationOp]int)
	store.Subscribe("op-counter", func(m *storage.Mutation) { ops[m.Op]++ }, storage.SubscribeOptions{})
	return ops
}

// TestFailedRefreshStaysInvalid: a refresh whose re-execution fails marks the
// query invalid, and it stays so — the passes after it, over a schema the
// query still matches, commit nothing — until a refresh succeeds.
func TestFailedRefreshStaysInvalid(t *testing.T) {
	eng, store, p := fixture(t)
	out, err := p.Submit(profiler.Submission{User: "alice", Visibility: storage.VisibilityPublic, SQL: "SELECT temp / (loc_x - 12) FROM WaterTemp"})
	if err != nil || out.ExecError != nil {
		t.Fatalf("Submit: %v, %v", err, out)
	}
	m := New(eng, store)
	if _, err := m.Scan(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		eng.MustExecute("INSERT INTO WaterTemp VALUES (99, 'Bulk Lake', 12, 12.0)")
	}
	ops := countOps(store)
	report, err := m.Scan()
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := store.Get(out.QueryID, admin)
	if rec.Valid || !strings.Contains(rec.InvalidReason, "re-execution failed") || rec.Stats.Error == "" {
		t.Fatalf("after the failed refresh: valid=%v reason=%q error=%q", rec.Valid, rec.InvalidReason, rec.Stats.Error)
	}
	if slices.Contains(report.StatsRefreshed, out.QueryID) || ops[storage.OpMarkInvalid] != 1 {
		t.Fatalf("the failed refresh: refreshed %v, committed %v", report.StatsRefreshed, ops)
	}
	for pass := 1; pass <= 2; pass++ {
		clear(ops)
		if _, err := m.Scan(); err != nil {
			t.Fatal(err)
		}
		if len(ops) != 0 {
			t.Errorf("pass %d after the failed refresh committed %v, want nothing", pass, ops)
		}
		if rec, _ := store.Get(out.QueryID, admin); rec.Valid {
			t.Errorf("pass %d after the failed refresh: the query reads valid with error %q", pass, rec.Stats.Error)
		}
	}
}

// TestSchemaFlagClearsDespiteFailedSubmission: a query whose run failed when
// it was submitted is logged valid, with its error. A dropped column flags it
// and the re-added column clears the flag while the record still carries the
// submission's error, before the refresh re-runs it: only a failed refresh
// keeps a query invalid.
func TestSchemaFlagClearsDespiteFailedSubmission(t *testing.T) {
	eng, store, p := fixture(t)
	out, err := p.Submit(profiler.Submission{User: "alice", Visibility: storage.VisibilityPublic, SQL: "SELECT temp / (loc_x - 11) FROM WaterTemp"})
	if err != nil || out.ExecError == nil {
		t.Fatalf("Submit: %v, %v; want a logged query whose run failed", err, out)
	}
	m := New(eng, store)
	eng.MustExecute("ALTER TABLE WaterTemp DROP COLUMN loc_x")
	if _, err := m.Scan(); err != nil {
		t.Fatal(err)
	}
	if rec, _ := store.Get(out.QueryID, admin); rec.Valid {
		t.Fatal("the dropped column left the query valid")
	}
	eng.MustExecute("ALTER TABLE WaterTemp ADD COLUMN loc_x INT")
	var ops []storage.MutationOp
	store.Subscribe("query-ops", func(mu *storage.Mutation) {
		if mu.ID == out.QueryID {
			ops = append(ops, mu.Op)
		}
	}, storage.SubscribeOptions{})
	report, err := m.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if want := []storage.MutationOp{storage.OpMarkValid, storage.OpMarkStale, storage.OpUpdateStats}; !slices.Equal(ops, want) {
		t.Fatalf("after the column came back the pass committed %v for the query, want %v", ops, want)
	}
	if !slices.Contains(report.StatsFlagged, out.QueryID) || !slices.Contains(report.StatsRefreshed, out.QueryID) {
		t.Errorf("flagged %v, refreshed %v; want the query in both", report.StatsFlagged, report.StatsRefreshed)
	}
	if rec, _ := store.Get(out.QueryID, admin); !rec.Valid || rec.InvalidReason != "" || rec.Stats.Error != "" {
		t.Fatalf("after the refresh: valid=%v reason=%q error=%q; want valid, with no error",
			rec.Valid, rec.InvalidReason, rec.Stats.Error)
	}
}

// TestIsStaleSkipsRenames: a rename changes no row, so it leaves statistics
// as they are; any other schema change to a referenced table makes them stale.
func TestIsStaleSkipsRenames(t *testing.T) {
	for _, c := range []struct {
		alter string
		stale bool
	}{
		{"ALTER TABLE WaterTemp RENAME COLUMN lake TO lake_name", false},
		{"ALTER TABLE WaterTemp RENAME TO LakeTemp", false},
		{"ALTER TABLE WaterTemp ADD COLUMN depth FLOAT", true},
		{"ALTER TABLE WaterTemp DROP COLUMN lake", true},
		{"ALTER TABLE WaterSalinity ADD COLUMN depth FLOAT", false}, // not a table the query reads
	} {
		eng, store, _ := fixture(t)
		rec, err := store.Get(1, admin) // SELECT temp FROM WaterTemp WHERE temp < 18
		if err != nil {
			t.Fatal(err)
		}
		eng.MustExecute(c.alter)
		if got := New(eng, store).isStale(rec, nil); got != c.stale {
			t.Errorf("%s: isStale = %v, want %v", c.alter, got, c.stale)
		}
	}
}

func TestScanFlagsDroppedColumn(t *testing.T) {
	eng, store, _ := fixture(t)
	eng.MustExecute("ALTER TABLE WaterSalinity DROP COLUMN salinity")
	m := New(eng, store)
	report, err := m.Scan()
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(report.Invalidated) != 1 {
		t.Fatalf("invalidated = %+v, want exactly the salinity query", report.Invalidated)
	}
	if !strings.Contains(report.Invalidated[0].Reason, "salinity") {
		t.Errorf("reason = %q", report.Invalidated[0].Reason)
	}
	invalid := store.InvalidQueries()
	if len(invalid) != 1 {
		t.Errorf("store invalid queries = %v", invalid)
	}
}

func TestScanFlagsDroppedTable(t *testing.T) {
	eng, store, _ := fixture(t)
	eng.MustExecute("DROP TABLE CityLocations")
	m := New(eng, store)
	report, err := m.Scan()
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(report.Invalidated) != 1 {
		t.Fatalf("invalidated = %+v", report.Invalidated)
	}
	if !strings.Contains(report.Invalidated[0].Reason, "CityLocations") {
		t.Errorf("reason = %q", report.Invalidated[0].Reason)
	}
}

func TestScanRepairsRenamedColumn(t *testing.T) {
	eng, store, _ := fixture(t)
	eng.MustExecute("ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature")
	m := New(eng, store)
	report, err := m.Scan()
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(report.Repaired) < 2 {
		t.Fatalf("repaired = %+v, want the two WaterTemp.temp queries", report.Repaired)
	}
	if len(report.Invalidated) != 0 {
		t.Errorf("renames should be repaired, not invalidated: %+v", report.Invalidated)
	}
	// The repaired queries now reference the new column and still execute.
	for _, rep := range report.Repaired {
		if !strings.Contains(rep.NewText, "temperature") {
			t.Errorf("repair text = %q", rep.NewText)
		}
		if _, err := eng.Execute(rep.NewText); err != nil {
			t.Errorf("repaired query does not execute: %v", err)
		}
	}
	for _, rec := range store.Snapshot().Records(admin) {
		if !rec.Valid {
			t.Errorf("query %d should be valid after repair", rec.ID)
		}
	}
}

func TestScanRepairsQueryOrderingByAlias(t *testing.T) {
	// Regression: a query ordering by a SELECT alias (ORDER BY avg_temp) must
	// be repairable after the underlying column is renamed; the alias must
	// not be mistaken for a dropped column.
	eng, store, p := fixture(t)
	out, err := p.Submit(profiler.Submission{
		User: "alice", Visibility: storage.VisibilityPublic,
		SQL: "SELECT lake, AVG(temp) AS avg_temp FROM WaterTemp GROUP BY lake ORDER BY avg_temp DESC",
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.MustExecute("ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature")
	report, err := New(eng, store).Scan()
	if err != nil {
		t.Fatal(err)
	}
	repaired := false
	for _, rep := range report.Repaired {
		if rep.ID == out.QueryID {
			repaired = true
			if !strings.Contains(rep.NewText, "AVG(temperature)") || !strings.Contains(rep.NewText, "ORDER BY avg_temp") {
				t.Errorf("repair text = %q", rep.NewText)
			}
			if _, err := eng.Execute(rep.NewText); err != nil {
				t.Errorf("repaired query fails: %v", err)
			}
		}
	}
	if !repaired {
		t.Errorf("aliased query was not repaired; invalidated = %+v", report.Invalidated)
	}
}

func TestScanRepairsRenamedTable(t *testing.T) {
	eng, store, _ := fixture(t)
	eng.MustExecute("ALTER TABLE WaterSalinity RENAME TO LakeSalinity")
	m := New(eng, store)
	report, err := m.Scan()
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(report.Repaired) != 1 {
		t.Fatalf("repaired = %+v, want the salinity query", report.Repaired)
	}
	if !strings.Contains(report.Repaired[0].NewText, "LakeSalinity") {
		t.Errorf("repair text = %q", report.Repaired[0].NewText)
	}
	if _, err := eng.Execute(report.Repaired[0].NewText); err != nil {
		t.Errorf("repaired query fails: %v", err)
	}
	// The store index follows the rename.
	got := 0
	store.Snapshot().ScanByTable(context.Background(), "LakeSalinity", admin, func(*storage.QueryRecord) bool { got++; return true })
	if got != 1 {
		t.Errorf("ScanByTable(LakeSalinity) = %d, want 1", got)
	}
}

// TestRepairThatFailsValidationInvalidates: a rename makes the query
// repairable, but its rewrite still names a dropped column, so the pass flags
// the query with the rename's reason instead of committing the rewrite.
func TestRepairThatFailsValidationInvalidates(t *testing.T) {
	eng, store, _ := fixture(t)
	eng.MustExecute("ALTER TABLE WaterSalinity RENAME TO LakeSalinity")
	eng.MustExecute("ALTER TABLE LakeSalinity DROP COLUMN salinity")
	report, err := New(eng, store).Scan()
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(report.Repaired) != 0 {
		t.Errorf("a rewrite naming a dropped column was committed: %+v", report.Repaired)
	}
	if len(report.Invalidated) != 1 || report.Invalidated[0].Reason != "table WaterSalinity renamed to LakeSalinity" {
		t.Fatalf("invalidated = %+v, want the WaterSalinity query, flagged by the rename", report.Invalidated)
	}
	rec, _ := store.Get(report.Invalidated[0].ID, admin)
	if rec.Valid || !strings.Contains(rec.Text, "WaterSalinity") {
		t.Errorf("the flagged query: valid=%v text=%q; want invalid, with its text unchanged", rec.Valid, rec.Text)
	}
}

func TestStaleStatsFlaggingAndRefresh(t *testing.T) {
	eng, store, _ := fixture(t)
	m := New(eng, store)
	if _, err := m.Scan(); err != nil {
		t.Fatal(err)
	}
	// Grow WaterTemp by well over the 25% threshold.
	for i := 0; i < 10; i++ {
		eng.MustExecute("INSERT INTO WaterTemp VALUES (99, 'Bulk Lake', 50, 12.0)")
	}
	report, err := m.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.StatsFlagged) == 0 {
		t.Fatalf("no stats flagged after data growth")
	}
	if len(report.StatsRefreshed) == 0 {
		t.Fatalf("no stats refreshed")
	}
	// The refreshed statistics reflect the new data.
	for _, rec := range store.Snapshot().Records(admin) {
		if rec.Tables[0] == "WaterTemp" && len(rec.Tables) == 1 && strings.Contains(rec.Text, "ORDER BY") {
			if rec.Stats.ResultRows != 12 {
				t.Errorf("refreshed cardinality = %d, want 12", rec.Stats.ResultRows)
			}
		}
	}
	if len(store.StaleQueries()) != 0 {
		t.Errorf("stale flags should be cleared after refresh")
	}
}

func TestStaleStatsAfterSchemaChangeOnReferencedTable(t *testing.T) {
	eng, store, _ := fixture(t)
	m := New(eng, store)
	if _, err := m.Scan(); err != nil {
		t.Fatal(err)
	}
	// Adding a column to WaterSalinity leaves its queries valid but makes
	// their stats stale; WaterTemp-only queries are unaffected.
	eng.MustExecute("ALTER TABLE WaterSalinity ADD COLUMN depth FLOAT")
	report, err := m.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.StatsFlagged) != 1 {
		t.Errorf("stats flagged = %v, want only the WaterSalinity query", report.StatsFlagged)
	}
	if !slices.Equal(report.StatsRefreshed, report.StatsFlagged) {
		t.Errorf("stats refreshed = %v, want the flagged %v", report.StatsRefreshed, report.StatsFlagged)
	}
}

func TestRefreshStatsBound(t *testing.T) {
	eng, store, _ := fixture(t)
	for _, id := range []storage.QueryID{1, 2, 3, 4} {
		if err := store.MarkStatsStale(id, true); err != nil {
			t.Fatal(err)
		}
	}
	m := New(eng, store)
	refreshed, err := m.RefreshStats(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(refreshed) != 2 {
		t.Errorf("refreshed = %d, want 2 (bounded)", len(refreshed))
	}
	// The most recent queries are refreshed first.
	if refreshed[0] != 3 || refreshed[1] != 4 {
		t.Errorf("refreshed IDs = %v, want the newest two", refreshed)
	}
}

func TestRefreshStatsMarksFailingQueriesInvalid(t *testing.T) {
	eng, store, _ := fixture(t)
	eng.MustExecute("DROP TABLE CityLocations")
	// Flag the CityLocations query as stale and refresh it: execution fails,
	// so it must be marked invalid.
	if err := store.MarkStatsStale(4, true); err != nil {
		t.Fatal(err)
	}
	m := New(eng, store)
	refreshed, err := m.RefreshStats(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(refreshed) != 0 {
		t.Errorf("failing query should not count as refreshed")
	}
	rec, _ := store.Get(4, admin)
	if rec.Valid {
		t.Errorf("failing query should be invalid after refresh attempt")
	}
}

func TestRewriteTableName(t *testing.T) {
	got, err := RewriteTableName(
		"SELECT WaterSalinity.salinity FROM WaterSalinity WHERE WaterSalinity.salinity > 2",
		"WaterSalinity", "LakeSalinity")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got, "WaterSalinity") || !strings.Contains(got, "LakeSalinity") {
		t.Errorf("rewrite = %q", got)
	}
	// Aliased references keep their alias.
	got, err = RewriteTableName("SELECT s.salinity FROM WaterSalinity s JOIN WaterTemp t ON s.loc_x = t.loc_x", "WaterSalinity", "LakeSalinity")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "LakeSalinity s") || !strings.Contains(got, "s.salinity") {
		t.Errorf("aliased rewrite = %q", got)
	}
	if _, err := RewriteTableName("not sql", "a", "b"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := RewriteTableName("DELETE FROM t", "t", "u"); err == nil {
		t.Error("expected non-SELECT error")
	}
}

func TestRewriteColumnName(t *testing.T) {
	// Unqualified references over a single table.
	got, err := RewriteColumnName("SELECT temp FROM WaterTemp WHERE temp < 18 ORDER BY temp", "WaterTemp", "temp", "temperature")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got, " temp ") || !strings.Contains(got, "temperature") {
		t.Errorf("rewrite = %q", got)
	}
	// Alias-qualified references.
	got, err = RewriteColumnName("SELECT t.temp FROM WaterTemp t, WaterSalinity s WHERE t.temp < 18 AND s.loc_x = t.loc_x", "WaterTemp", "temp", "temperature")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "t.temperature") {
		t.Errorf("aliased column rewrite = %q", got)
	}
	// A same-named column of a different table is left alone.
	got, err = RewriteColumnName("SELECT t.loc_x, s.loc_x FROM WaterTemp t, WaterSalinity s", "WaterTemp", "loc_x", "grid_x")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "t.grid_x") || !strings.Contains(got, "s.loc_x") {
		t.Errorf("selective column rewrite = %q", got)
	}
}

// TestRewriteReachesEveryReference: a rename is applied wherever the query
// names the table or column — every link of a join chain, derived tables,
// IN / EXISTS / scalar sub-queries, through aliases — and nowhere else.
func TestRewriteReachesEveryReference(t *testing.T) {
	renameX := func(q string) (string, error) { return RewriteColumnName(q, "a", "x", "xx") }
	renameA := func(q string) (string, error) { return RewriteTableName(q, "a", "z") }
	for _, tc := range []struct {
		name    string
		rewrite func(string) (string, error)
		query   string
		want    string
	}{
		{"column: chained joins", renameX,
			"SELECT a.v FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y WHERE a.x > 1",
			"SELECT a.v FROM a JOIN b ON a.xx = b.x JOIN c ON b.y = c.y WHERE a.xx > 1"},
		{"column: derived table", renameX,
			"SELECT * FROM (SELECT a.x AS x FROM a WHERE a.x > 0) d",
			"SELECT * FROM (SELECT a.xx AS x FROM a WHERE a.xx > 0) d"},
		{"column: IN sub-query", renameX,
			"SELECT b.y FROM b WHERE b.y IN (SELECT a.x FROM a WHERE a.x < 5)",
			"SELECT b.y FROM b WHERE b.y IN (SELECT a.xx FROM a WHERE a.xx < 5)"},
		{"column: alias in a join chain", renameX,
			"SELECT t.x FROM a t JOIN b ON t.x = b.x JOIN c ON c.y = t.x",
			"SELECT t.xx FROM a t JOIN b ON t.xx = b.x JOIN c ON c.y = t.xx"},
		{"column: unqualified over one table", renameX,
			"SELECT x FROM a WHERE x IN (SELECT x FROM a) ORDER BY x",
			"SELECT xx FROM a WHERE xx IN (SELECT xx FROM a) ORDER BY xx"},
		{"column: other tables' x untouched", renameX,
			"SELECT a.x, b.x FROM a JOIN b ON a.x = b.x JOIN c ON c.x = b.x",
			"SELECT a.xx, b.x FROM a JOIN b ON a.xx = b.x JOIN c ON c.x = b.x"},
		{"table: chained joins", renameA,
			"SELECT a.v FROM a JOIN b ON a.x = b.x JOIN c ON a.y = c.y",
			"SELECT z.v FROM z JOIN b ON z.x = b.x JOIN c ON z.y = c.y"},
		{"table: expression sub-queries", renameA,
			"SELECT b.y FROM b WHERE b.y IN (SELECT a.y FROM a) AND EXISTS (SELECT 1 FROM a WHERE a.y = b.y) AND b.v > (SELECT MAX(a.v) FROM a)",
			"SELECT b.y FROM b WHERE b.y IN (SELECT z.y FROM z) AND EXISTS (SELECT 1 FROM z WHERE z.y = b.y) AND b.v > (SELECT MAX(z.v) FROM z)"},
		{"table: derived table inside IN", renameA,
			"SELECT b.y FROM b WHERE b.y IN (SELECT d.y FROM (SELECT a.y FROM a) d)",
			"SELECT b.y FROM b WHERE b.y IN (SELECT d.y FROM (SELECT z.y FROM z) d)"},
		{"table: alias kept", renameA,
			"SELECT t.x FROM a t JOIN b ON t.x = b.x",
			"SELECT t.x FROM z t JOIN b ON t.x = b.x"},
		{"table: compound branch", renameA,
			"SELECT a.x FROM a UNION SELECT b.x FROM b JOIN a ON a.x = b.x",
			"SELECT z.x FROM z UNION SELECT b.x FROM b JOIN z ON z.x = b.x"},
	} {
		got, err := tc.rewrite(tc.query)
		if err != nil || got != tc.want {
			t.Errorf("%s: %q\n got %q, %v\nwant %q", tc.name, tc.query, got, err, tc.want)
		}
	}
}
