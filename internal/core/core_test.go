package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metaquery"
	"repro/internal/profiler"
	"repro/internal/storage"
	"repro/internal/workload"
)

var (
	admin = storage.Principal{Admin: true}
	alice = storage.Principal{User: "alice", Groups: []string{"limnology"}}
)

// newSystem builds a CQMS over a small populated scientific database.
func newSystem(t testing.TB) *CQMS {
	t.Helper()
	eng := engine.New()
	if err := workload.Populate(eng, 300, 1); err != nil {
		t.Fatalf("Populate: %v", err)
	}
	return NewWithEngine(eng, DefaultConfig())
}

func submit(t testing.TB, c *CQMS, user, group, q string, at time.Time) *profiler.Outcome {
	t.Helper()
	out, err := c.Submit(profiler.Submission{
		User: user, Group: group, Visibility: storage.VisibilityGroup, SQL: q, IssuedAt: at,
	})
	if err != nil {
		t.Fatalf("Submit(%q): %v", q, err)
	}
	return out
}

// loadFigure2Session replays the paper's Figure 2 session for one user.
func loadFigure2Session(t testing.TB, c *CQMS, user string, base time.Time) {
	t.Helper()
	queries := []string{
		"SELECT * FROM WaterTemp WHERE temp < 22",
		"SELECT * FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND WaterTemp.temp < 22",
		"SELECT * FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND WaterTemp.temp < 10",
		"SELECT * FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND WaterTemp.temp < 18",
		"SELECT * FROM WaterTemp, WaterSalinity, CityLocations WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND WaterTemp.temp < 18 AND WaterTemp.loc_x = CityLocations.loc_x",
	}
	for i, q := range queries {
		submit(t, c, user, "limnology", q, base.Add(time.Duration(i)*time.Minute))
	}
}

func TestTraditionalModeEndToEnd(t *testing.T) {
	c := newSystem(t)
	out := submit(t, c, "alice", "limnology", "SELECT lake, temp FROM WaterTemp WHERE temp < 18", time.Time{})
	if out.ExecError != nil {
		t.Fatalf("exec error: %v", out.ExecError)
	}
	if out.Result.Cardinality() == 0 {
		t.Errorf("query over populated data returned nothing")
	}
	if c.Store().Count() != 1 {
		t.Errorf("store count = %d", c.Store().Count())
	}
	if err := c.Annotate(out.QueryID, alice, storage.Annotation{Text: "cold lakes"}); err != nil {
		t.Errorf("Annotate: %v", err)
	}
}

func TestSearchAndBrowseMode(t *testing.T) {
	c := newSystem(t)
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	loadFigure2Session(t, c, "alice", base)
	submit(t, c, "bob", "limnology", "SELECT city FROM CityLocations WHERE state = 'WA'", base.Add(3*time.Hour))

	// Keyword search.
	ctx := context.Background()
	if got, err := c.Search(ctx, admin, "WaterSalinity"); err != nil || len(got) != 4 {
		t.Errorf("keyword matches = %d, want 4", len(got))
	}
	// Figure 1 meta-query through the public API.
	_, matches, err := c.MetaQuery(ctx, admin, `SELECT Q.qid FROM Queries Q, Attributes A1, Attributes A2
		WHERE Q.qid = A1.qid AND Q.qid = A2.qid AND A1.relName = 'WaterTemp' AND A1.attrName = 'temp'
		AND A2.relName = 'WaterSalinity' AND A2.attrName = 'loc_x'`)
	if err != nil {
		t.Fatalf("MetaQuery: %v", err)
	}
	if len(matches) == 0 {
		t.Errorf("meta-query found nothing")
	}
	// Structure search.
	if got, err := c.SearchPage(ctx, admin, metaquery.Structure(metaquery.StructuralCondition{MinTables: 3}), metaquery.Cursor{}, 0); err != nil || len(got.Matches) != 1 {
		t.Errorf("structural matches = %d, want 1", len(got.Matches))
	}
	// Partial-query search.
	partial, err := metaquery.Partial("SELECT FROM WaterTemp, WaterSalinity")
	if err != nil {
		t.Fatalf("Partial: %v", err)
	}
	got, err := c.SearchPage(ctx, admin, partial, metaquery.Cursor{}, 0)
	if err != nil {
		t.Fatalf("partial SearchPage: %v", err)
	}
	if len(got.Matches) != 4 {
		t.Errorf("partial matches = %d, want 4", len(got.Matches))
	}
	// History.
	if h, err := c.History(ctx, admin, "alice"); err != nil || len(h) != 5 {
		t.Errorf("history = %d, want 5", len(h))
	}
	// kNN.
	probe, err := storage.NewRecordFromSQL("SELECT * FROM WaterTemp WHERE temp < 20")
	if err != nil {
		t.Fatal(err)
	}
	knn, err := c.SearchPage(ctx, admin, metaquery.Similar(probe, 3), metaquery.Cursor{}, 0)
	if err != nil || len(knn.Matches) == 0 || len(knn.Matches) > 3 {
		t.Errorf("similar SearchPage: %v, %d results", err, len(knn.Matches))
	}
}

func TestSessionsAfterMining(t *testing.T) {
	c := newSystem(t)
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	loadFigure2Session(t, c, "alice", base)
	submit(t, c, "alice", "limnology", "SELECT city FROM CityLocations", base.Add(5*time.Hour))

	res := c.RunMiner()
	if res == nil || res.TransactionCount != 6 {
		t.Fatalf("mining result = %+v", res)
	}
	ctx := context.Background()
	sessions, err := c.Sessions(ctx, admin)
	if err != nil {
		t.Fatalf("Sessions: %v", err)
	}
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(sessions))
	}
	graph, err := c.SessionGraph(ctx, admin, sessions[0].ID)
	if err != nil {
		t.Fatalf("SessionGraph: %v", err)
	}
	if !strings.Contains(graph, "+table WaterSalinity") {
		t.Errorf("session graph missing Figure 2 edge label:\n%s", graph)
	}
	if _, err := c.SessionGraph(ctx, admin, 9999); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("missing session error = %v", err)
	}
	// Access control on session graphs: a stranger cannot view alice's
	// group-visible session.
	stranger := storage.Principal{User: "eve", Groups: []string{"other"}}
	if _, err := c.SessionGraph(ctx, stranger, sessions[0].ID); !errors.Is(err, storage.ErrAccessDenied) {
		t.Errorf("stranger session access = %v, want ErrAccessDenied", err)
	}
	if got, err := c.Sessions(ctx, stranger); err != nil || len(got) != 0 {
		t.Errorf("stranger sees %d sessions, want 0", len(got))
	}
}

func TestAssistedMode(t *testing.T) {
	c := newSystem(t)
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	// Build a log where WaterSalinity co-occurs with WaterTemp.
	for i := 0; i < 6; i++ {
		submit(t, c, "alice", "limnology",
			"SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x AND WaterTemp.temp < 18",
			base.Add(time.Duration(i)*3*time.Hour))
	}
	for i := 0; i < 8; i++ {
		submit(t, c, "bob", "limnology", "SELECT city FROM CityLocations WHERE pop > 100000",
			base.Add(time.Duration(i)*2*time.Hour))
	}
	c.RunMiner()

	// Context-aware table completion (§2.3 example).
	ctx := context.Background()
	got, err := c.SuggestTables(ctx, alice, "SELECT * FROM WaterSalinity", 3)
	if err != nil {
		t.Fatalf("SuggestTables: %v", err)
	}
	if len(got) == 0 || got[0].Text != "WaterTemp" {
		t.Errorf("table suggestions = %+v, want WaterTemp first", got)
	}
	// Full completion list has several kinds.
	all, err := c.Complete(ctx, alice, "SELECT * FROM WaterSalinity, WaterTemp WHERE ", 3)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if len(all) == 0 {
		t.Errorf("no completions")
	}
	// Corrections.
	corr, err := c.Corrections(ctx, alice, "SELECT tmep FROM WaterTemp")
	if err != nil {
		t.Fatalf("Corrections: %v", err)
	}
	if len(corr) == 0 {
		t.Errorf("no corrections for misspelled column")
	}
	// Empty-result suggestions.
	sugg, err := c.EmptyResultSuggestions(ctx, alice, "SELECT * FROM WaterTemp WHERE temp < -100", 3)
	if err != nil {
		t.Fatalf("EmptyResultSuggestions: %v", err)
	}
	if len(sugg) == 0 {
		t.Errorf("no empty-result suggestions")
	}
	// Similar queries and the rendered pane.
	pane, err := c.AssistPane(ctx, alice, "SELECT * FROM WaterSalinity, WaterTemp WHERE ", 3)
	if err != nil {
		t.Fatalf("AssistPane: %v", err)
	}
	if !strings.Contains(pane, "Similar Queries") {
		t.Errorf("pane missing similar queries:\n%s", pane)
	}
	sim, err := c.SimilarQueries(ctx, alice, "SELECT WaterTemp.temp FROM WaterTemp WHERE WaterTemp.temp < 20", 3)
	if err != nil || len(sim) == 0 {
		t.Errorf("SimilarQueries: %v, %d", err, len(sim))
	}
	// Tutorial.
	steps, err := c.Tutorial(ctx, alice, 2)
	if err != nil {
		t.Fatalf("Tutorial: %v", err)
	}
	if len(steps) == 0 {
		t.Errorf("no tutorial steps")
	}
}

func TestAdministrativeMode(t *testing.T) {
	c := newSystem(t)
	out := submit(t, c, "alice", "limnology", "SELECT temp FROM WaterTemp WHERE temp < 18", time.Time{})

	// Visibility change and deletion respect ownership.
	bob := storage.Principal{User: "bob", Groups: []string{"limnology"}}
	if err := c.SetVisibility(out.QueryID, bob, storage.VisibilityPublic); !errors.Is(err, storage.ErrAccessDenied) {
		t.Errorf("non-owner visibility change err = %v", err)
	}
	if err := c.SetVisibility(out.QueryID, alice, storage.VisibilityPublic); err != nil {
		t.Errorf("owner visibility change: %v", err)
	}
	if err := c.DeleteQuery(out.QueryID, alice); err != nil {
		t.Errorf("DeleteQuery: %v", err)
	}
	if c.Store().Count() != 0 {
		t.Errorf("query not deleted")
	}
}

func TestMaintenanceIntegration(t *testing.T) {
	c := newSystem(t)
	submit(t, c, "alice", "limnology", "SELECT temp FROM WaterTemp WHERE temp < 18", time.Time{})
	submit(t, c, "alice", "limnology", "SELECT battery FROM Sensors WHERE battery < 20", time.Time{})

	// Rename a column through the CQMS itself (DDL also goes through Submit).
	if _, err := c.Submit(profiler.Submission{User: "dba", SQL: "ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature"}); err != nil {
		t.Fatalf("DDL submit: %v", err)
	}
	report, err := c.RunMaintenance()
	if err != nil {
		t.Fatalf("RunMaintenance: %v", err)
	}
	if len(report.Repaired) != 1 {
		t.Fatalf("repaired = %+v, want the WaterTemp query", report.Repaired)
	}
	// The repaired query must execute against the evolved schema.
	rec, err := c.Store().Get(report.Repaired[0].ID, admin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecuteUnprofiled(rec.Text); err != nil {
		t.Errorf("repaired query fails: %v", err)
	}
}

func TestBackgroundScheduler(t *testing.T) {
	c := newSystem(t)
	cfg := DefaultConfig()
	cfg.MiningInterval = 10 * time.Millisecond
	cfg.MaintenanceInterval = 10 * time.Millisecond
	c2 := NewWithEngine(c.Engine(), cfg)
	submit(t, c2, "alice", "limnology", "SELECT temp FROM WaterTemp WHERE temp < 18", time.Time{})

	passes := c2.Metrics().Counter("cqms_miner_passes_total", "")
	ctx, cancel := context.WithCancel(context.Background())
	c2.StartBackground(ctx)
	deadline := time.After(2 * time.Second)
	for passes.Value() == 0 {
		select {
		case <-deadline:
			cancel()
			t.Fatal("background miner did not run")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.MiningInterval <= 0 || cfg.MaintenanceInterval <= 0 {
		t.Errorf("intervals must be positive")
	}
	if !cfg.Profiler.Sample.Adaptive || !cfg.Recommender.ContextAware {
		t.Errorf("default profiler or recommender config missing")
	}
	c := New(cfg)
	if c.Engine() == nil || c.Store() == nil {
		t.Errorf("New returned incomplete system")
	}
}

// TestCancelledContextPropagates pins the v1 contract at the core layer: a
// cancelled request context makes every read/search method fail with
// context.Canceled instead of returning partial results, and batch submits
// refuse to start.
func TestCancelledContextPropagates(t *testing.T) {
	c := newSystem(t)
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	loadFigure2Session(t, c, "alice", base)
	c.RunMiner()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := c.Search(cancelled, admin, "watertemp"); !errors.Is(err, context.Canceled) {
		t.Errorf("Search: err = %v, want context.Canceled", err)
	}
	if _, err := c.SearchSubstring(cancelled, admin, "watertemp"); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchSubstring: err = %v", err)
	}
	if _, _, err := c.MetaQuery(cancelled, admin, "SELECT qid FROM Queries"); !errors.Is(err, context.Canceled) {
		t.Errorf("MetaQuery: err = %v", err)
	}
	if _, err := c.History(cancelled, admin, "alice"); !errors.Is(err, context.Canceled) {
		t.Errorf("History: err = %v", err)
	}
	if _, _, err := c.HistoryPage(cancelled, admin, "alice", HistoryCursor{}, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("HistoryPage: err = %v", err)
	}
	if _, err := c.Sessions(cancelled, admin); !errors.Is(err, context.Canceled) {
		t.Errorf("Sessions: err = %v", err)
	}
	if _, err := c.SessionGraph(cancelled, admin, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("SessionGraph: err = %v", err)
	}
	if _, err := c.Complete(cancelled, admin, "SELECT * FROM WaterTemp", 3); !errors.Is(err, context.Canceled) {
		t.Errorf("Complete: err = %v", err)
	}
	if _, err := c.SearchPage(cancelled, admin, metaquery.Structure(metaquery.StructuralCondition{MinTables: 1}), metaquery.Cursor{}, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchPage: err = %v", err)
	}
	if _, err := c.Tutorial(cancelled, admin, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("Tutorial: err = %v", err)
	}
	if _, err := c.GetQuery(cancelled, admin, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("GetQuery: err = %v", err)
	}
	if _, _, err := c.SubmitBatch(cancelled, []profiler.Submission{{User: "alice", SQL: "SELECT lake FROM WaterTemp"}}); !errors.Is(err, context.Canceled) {
		t.Errorf("SubmitBatch: err = %v", err)
	}
	before := c.Store().Count()
	if got := c.Store().Count(); got != before {
		t.Errorf("cancelled batch mutated the store: %d -> %d", before, got)
	}
}

// TestHistoryPagePinsSnapshot paginates a user's history while new queries
// arrive between pages; the listing must stay exactly the first page's
// membership.
func TestHistoryPagePinsSnapshot(t *testing.T) {
	c := newSystem(t)
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		submit(t, c, "alice", "limnology", "SELECT lake FROM WaterTemp", base.Add(time.Duration(i)*time.Minute))
	}
	ctx := context.Background()

	var all []storage.QueryID
	cur := HistoryCursor{}
	for {
		recs, next, err := c.HistoryPage(ctx, admin, "alice", cur, 3)
		if err != nil {
			t.Fatalf("HistoryPage: %v", err)
		}
		if len(recs) == 0 {
			break
		}
		for _, rec := range recs {
			all = append(all, rec.ID)
		}
		cur = next
		// Interleave writes between pages: they must stay invisible.
		submit(t, c, "alice", "limnology", "SELECT salinity FROM WaterSalinity", base.Add(time.Hour))
	}
	if len(all) != 10 {
		t.Fatalf("paginated %d records, want the 10 pre-listing ones: %v", len(all), all)
	}
	seen := map[storage.QueryID]bool{}
	for i, id := range all {
		if seen[id] {
			t.Fatalf("duplicate query %d in pagination", id)
		}
		seen[id] = true
		if i > 0 && id <= all[i-1] {
			t.Fatalf("pagination out of order: %v", all)
		}
	}
}

// TestColdStartContextAwareCompletion proves the bus-driven miner feed
// serves context-aware table suggestions before the first full mining pass:
// no RunMiner is called, yet the §2.3 co-occurrence example still ranks
// WaterTemp above the globally more popular CityLocations.
func TestColdStartContextAwareCompletion(t *testing.T) {
	c := newSystem(t)
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 6; i++ {
		submit(t, c, "alice", "limnology",
			"SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x",
			base.Add(time.Duration(i)*time.Minute))
	}
	for i := 0; i < 8; i++ {
		submit(t, c, "bob", "limnology", "SELECT city FROM CityLocations WHERE pop > 100000",
			base.Add(time.Duration(i)*time.Minute))
	}
	got, err := c.SuggestTables(context.Background(), alice, "SELECT * FROM WaterSalinity", 3)
	if err != nil {
		t.Fatalf("SuggestTables: %v", err)
	}
	if len(got) == 0 || got[0].Text != "WaterTemp" {
		t.Errorf("cold-start suggestions = %+v, want WaterTemp first (from the feed)", got)
	}

	// A mining pass re-derives the feed's rules; the feed keeps following
	// submissions.
	c.RunMiner()
	before := c.MinerFeed().NumTransactions()
	submit(t, c, "alice", "limnology", "SELECT temp FROM WaterTemp", base.Add(time.Hour))
	if got := c.MinerFeed().NumTransactions(); got != before+1 {
		t.Errorf("feed transactions after the pass = %d, want %d", got, before+1)
	}
	got, err = c.SuggestTables(context.Background(), alice, "SELECT * FROM WaterSalinity", 3)
	if err != nil {
		t.Fatalf("SuggestTables after mining pass: %v", err)
	}
	if len(got) == 0 || got[0].Text != "WaterTemp" {
		t.Errorf("post-mining suggestions = %+v, want WaterTemp first (from the pass's rules)", got)
	}
}
