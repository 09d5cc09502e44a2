package recommend

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metaquery"
	"repro/internal/miner"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/storage"
)

var admin = storage.Principal{Admin: true}

// mustPut stores rec and fails the test (without stopping it: writers run on
// other goroutines too) if the store refuses it.
func mustPut(t testing.TB, s *storage.Store, rec *storage.QueryRecord) storage.QueryID {
	t.Helper()
	id, err := s.Put(rec)
	if err != nil {
		t.Errorf("Put: %v", err)
	}
	return id
}

// fixture builds a store shaped like the paper's §2.3 example: CityLocations
// is globally the most popular table, but queries over WaterSalinity almost
// always also reference WaterTemp.
func fixture(t testing.TB) (*Recommender, *storage.Store) {
	t.Helper()
	store := storage.NewStore()
	put := func(text string, rows int) storage.QueryID {
		rec, err := storage.NewRecordFromSQL(text)
		if err != nil {
			t.Fatalf("NewRecordFromSQL(%q): %v", text, err)
		}
		rec.User = "alice"
		rec.Visibility = storage.VisibilityPublic
		rec.Stats = storage.RuntimeStats{ResultRows: rows, ExecTime: 3 * time.Millisecond}
		return mustPut(t, store, rec)
	}
	// 12 CityLocations-only queries (globally most popular table).
	for i := 0; i < 6; i++ {
		put("SELECT city FROM CityLocations WHERE state = 'WA'", 30)
		put("SELECT city FROM CityLocations WHERE pop > 10000", 45)
	}
	// 8 WaterSalinity+WaterTemp queries (context rule).
	for i := 0; i < 8; i++ {
		put("SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x AND WaterTemp.temp < 18", 12)
	}
	// 1 WaterSalinity+CityLocations query.
	put("SELECT WaterSalinity.salinity FROM WaterSalinity, CityLocations WHERE WaterSalinity.loc_x = CityLocations.loc_x", 4)
	// 5 WaterTemp-only queries with varied predicates.
	put("SELECT temp FROM WaterTemp WHERE temp < 18", 10)
	put("SELECT temp FROM WaterTemp WHERE temp < 18", 10)
	put("SELECT temp FROM WaterTemp WHERE temp < 22", 25)
	put("SELECT lake, temp FROM WaterTemp WHERE temp > 30", 0) // empty result
	put("SELECT AVG(temp) FROM WaterTemp GROUP BY lake", 3)

	// Annotate one correlation query (shows up in the Figure 3 pane).
	ids := store.Snapshot().Records(admin)
	for _, rec := range ids {
		if strings.Contains(rec.Text, "WaterSalinity.loc_x = WaterTemp.loc_x") {
			if err := store.Annotate(rec.ID, storage.Principal{User: "alice"}, storage.Annotation{
				Text: "find temp and salinity of Seattle lakes"}); err != nil {
				t.Fatal(err)
			}
			break
		}
	}

	catalog := engine.NewCatalog()
	for table, cols := range map[string][]string{
		"WaterTemp":     {"id", "lake", "loc_x", "loc_y", "temp"},
		"WaterSalinity": {"id", "lake", "loc_x", "loc_y", "salinity", "depth"},
		"CityLocations": {"city", "state", "loc_x", "loc_y", "pop"},
	} {
		schema := &engine.Schema{Table: table}
		for _, col := range cols {
			schema.Columns = append(schema.Columns, engine.Column{Name: col, Type: engine.TypeText})
		}
		if err := catalog.CreateTable(schema, false); err != nil {
			t.Fatal(err)
		}
	}
	sessions := session.AttachLive(store)
	feed := miner.NewFeed(miner.AssocConfig{MinSupport: 0.03, MinConfidence: 0.3, MaxItemsetSize: 3})
	feed.Attach(store)
	return New(store, metaquery.New(store, sessions.SessionOf), stats.Attach(store), feed.Rules, catalog, DefaultConfig()), store
}

func TestSuggestTablesContextAware(t *testing.T) {
	r, _ := fixture(t)
	// The paper's example: the user has already included WaterSalinity, so
	// WaterTemp must be suggested above CityLocations even though the latter
	// is globally more popular.
	got := r.SuggestTables(admin, "SELECT * FROM WaterSalinity", 3)
	if len(got) == 0 {
		t.Fatal("no suggestions")
	}
	if got[0].Text != "WaterTemp" {
		t.Errorf("top suggestion = %q, want WaterTemp (context-aware)", got[0].Text)
	}
	rankCity := -1
	for i, c := range got {
		if c.Text == "CityLocations" {
			rankCity = i
		}
		if c.Text == "WaterSalinity" {
			t.Errorf("should not suggest a table already in the query")
		}
	}
	if rankCity == 0 {
		t.Errorf("CityLocations should not outrank WaterTemp")
	}
}

func TestSuggestTablesGlobalPopularityWithoutContext(t *testing.T) {
	r, _ := fixture(t)
	// An empty query has no context: the globally most popular table
	// (CityLocations) is suggested first.
	got := r.SuggestTables(admin, "SELECT ", 3)
	if len(got) == 0 {
		t.Fatal("no suggestions")
	}
	if got[0].Text != "CityLocations" {
		t.Errorf("top suggestion = %q, want CityLocations (most popular)", got[0].Text)
	}
}

func TestSuggestTablesContextAwareDisabled(t *testing.T) {
	r, store := fixture(t)
	cfg := DefaultConfig()
	cfg.ContextAware = false
	r2 := New(store, r.exec, r.stats, r.rules, r.catalog, cfg)
	got := r2.SuggestTables(admin, "SELECT * FROM WaterSalinity", 3)
	if len(got) == 0 {
		t.Fatal("no suggestions")
	}
	// Without context rules the globally popular CityLocations wins: this is
	// the E3 ablation baseline.
	if got[0].Text != "CityLocations" {
		t.Errorf("popularity-only top suggestion = %q, want CityLocations", got[0].Text)
	}
}

func TestSuggestColumns(t *testing.T) {
	r, _ := fixture(t)
	got := r.SuggestColumns(admin, "SELECT FROM WaterTemp", 5)
	if len(got) == 0 {
		t.Fatal("no column suggestions")
	}
	foundTemp := false
	for _, c := range got {
		if strings.HasSuffix(c.Text, "temp") {
			foundTemp = true
		}
	}
	if !foundTemp {
		t.Errorf("temp should be suggested for WaterTemp: %+v", got)
	}
	// Already-referenced columns are not suggested.
	got = r.SuggestColumns(admin, "SELECT temp FROM WaterTemp", 5)
	for _, c := range got {
		if c.Text == "WaterTemp.temp" || c.Text == "temp" {
			t.Errorf("already-present column suggested: %+v", c)
		}
	}
}

func TestSuggestPredicates(t *testing.T) {
	r, _ := fixture(t)
	got := r.SuggestPredicates(admin, "SELECT temp FROM WaterTemp WHERE ", 5)
	if len(got) == 0 {
		t.Fatal("no predicate suggestions")
	}
	// 'temp < 18' is the most frequent predicate over WaterTemp in the log
	// (8 correlation queries + 2 direct).
	if !strings.Contains(got[0].Text, "temp < 18") {
		t.Errorf("top predicate = %q, want temp < 18", got[0].Text)
	}
	// An existing predicate is not re-suggested.
	got = r.SuggestPredicates(admin, "SELECT temp FROM WaterTemp WHERE WaterTemp.temp < 18", 5)
	for _, c := range got {
		if strings.Contains(c.Text, "temp < 18") {
			t.Errorf("existing predicate suggested again: %+v", c)
		}
	}
}

func TestSuggestJoins(t *testing.T) {
	r, _ := fixture(t)
	got := r.SuggestJoins(admin, "SELECT * FROM WaterSalinity, WaterTemp", 5)
	if len(got) == 0 {
		t.Fatal("no join suggestions")
	}
	if !strings.Contains(got[0].Text, "loc_x") {
		t.Errorf("top join = %q, want the loc_x equi-join", got[0].Text)
	}
	// A single-table query yields no join suggestions.
	if got := r.SuggestJoins(admin, "SELECT * FROM WaterTemp", 5); got != nil {
		t.Errorf("join suggestions for single table = %+v, want none", got)
	}
}

func TestCompleteMergesKinds(t *testing.T) {
	r, _ := fixture(t)
	got := r.Complete(admin, "SELECT * FROM WaterSalinity, WaterTemp WHERE ", 3)
	kinds := map[CompletionKind]bool{}
	for _, c := range got {
		kinds[c.Kind] = true
	}
	for _, want := range []CompletionKind{CompleteTable, CompleteColumn, CompletePredicate, CompleteJoin} {
		if !kinds[want] {
			t.Errorf("Complete missing kind %v", want)
		}
	}
}

func TestCompletionKindString(t *testing.T) {
	if CompleteTable.String() != "table" || CompleteColumn.String() != "column" ||
		CompletePredicate.String() != "predicate" || CompleteJoin.String() != "join" ||
		CompletionKind(99).String() != "unknown" {
		t.Error("CompletionKind labels wrong")
	}
}

func TestCorrectionsMisspelledNames(t *testing.T) {
	r, _ := fixture(t)
	got := r.Corrections(context.Background(), admin, "SELECT tmep FROM WaterTemps WHERE tmep < 18")
	var tableFix, colFix bool
	for _, c := range got {
		if c.Kind == "table" && c.Original == "WaterTemps" && c.Suggestion == "WaterTemp" {
			tableFix = true
		}
		if c.Kind == "column" && strings.Contains(c.Suggestion, "temp") {
			colFix = true
		}
	}
	if !tableFix {
		t.Errorf("missing table correction: %+v", got)
	}
	if !colFix {
		t.Errorf("missing column correction: %+v", got)
	}
}

// TestCorrectionsOfASharedColumnAreDeterministic: lake is a column of
// WaterTemp and of WaterSalinity. A misspelling of it is qualified by the
// table the query names, and without one by the first table by name, on
// every call.
func TestCorrectionsOfASharedColumnAreDeterministic(t *testing.T) {
	r, _ := fixture(t)
	for _, c := range []struct{ sql, want string }{
		{"SELECT lak FROM WaterTemp", "WaterTemp.lake"},
		{"SELECT lak", "WaterSalinity.lake"},
	} {
		for i := 0; i < 50; i++ {
			got := r.Corrections(context.Background(), admin, c.sql)
			if len(got) != 1 || got[0].Kind != "column" || got[0].Suggestion != c.want {
				t.Fatalf("%q, call %d: %+v; want lak corrected to %s", c.sql, i, got, c.want)
			}
		}
	}
}

func TestCorrectionsDeduplicated(t *testing.T) {
	r, _ := fixture(t)
	// The same typo appears in SELECT and WHERE; only one correction should
	// be emitted.
	got := r.Corrections(context.Background(), admin, "SELECT tmep FROM WaterTemp WHERE tmep < 18")
	seen := map[string]int{}
	for _, c := range got {
		seen[c.Kind+"|"+c.Original+"|"+c.Suggestion]++
	}
	for key, n := range seen {
		if n > 1 {
			t.Errorf("correction %q emitted %d times", key, n)
		}
	}
}

func TestCorrectionsNoFalsePositives(t *testing.T) {
	r, _ := fixture(t)
	got := r.Corrections(context.Background(), admin, "SELECT temp FROM WaterTemp WHERE temp < 18")
	if len(got) != 0 {
		t.Errorf("correct query should produce no corrections: %+v", got)
	}
}

func TestEmptyResultSuggestions(t *testing.T) {
	r, _ := fixture(t)
	// 'temp > 30' returned the empty set in the log; the assistant suggests
	// previously issued predicates on temp that returned data.
	got, err := r.EmptyResultSuggestions(context.Background(), admin, "SELECT lake, temp FROM WaterTemp WHERE temp > 30", 3)
	if err != nil {
		t.Fatalf("EmptyResultSuggestions: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("no suggestions")
	}
	found := false
	for _, c := range got {
		if strings.Contains(c.Suggestion, "temp < 18") {
			found = true
		}
		if strings.Contains(c.Suggestion, "temp > 30") {
			t.Errorf("the failing predicate itself was suggested")
		}
	}
	if !found {
		t.Errorf("expected 'temp < 18' among suggestions: %+v", got)
	}
}

func TestEmptyResultSuggestionsErrors(t *testing.T) {
	r, _ := fixture(t)
	if _, err := r.EmptyResultSuggestions(context.Background(), admin, "not sql", 3); err == nil {
		t.Error("expected parse error")
	}
	if _, err := r.EmptyResultSuggestions(context.Background(), admin, "DELETE FROM WaterTemp", 3); err == nil {
		t.Error("expected error for non-SELECT")
	}
}

func TestSimilarQueriesRankingAndColumns(t *testing.T) {
	r, _ := fixture(t)
	got, err := r.SimilarQueries(context.Background(), admin, "SELECT temp FROM WaterTemp WHERE temp < 20", 3)
	if err != nil {
		t.Fatalf("SimilarQueries: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("no similar queries")
	}
	if len(got) > 3 {
		t.Errorf("k not respected")
	}
	// The most similar query must be a WaterTemp query, not CityLocations.
	if !contains(got[0].Record.Tables, "WaterTemp") {
		t.Errorf("top similar query tables = %v", got[0].Record.Tables)
	}
	// Scores descending; diff column populated.
	for i, s := range got {
		if i > 0 && s.Score > got[i-1].Score {
			t.Errorf("similar queries not sorted")
		}
		if s.Diff == "" {
			t.Errorf("diff column empty")
		}
	}
}

func TestSimilarQueriesFromPartial(t *testing.T) {
	r, _ := fixture(t)
	// An unparsable partial query falls back to feature matching.
	got, err := r.SimilarQueries(context.Background(), admin, "SELECT FROM WaterSalinity, WaterTemp WHERE", 5)
	if err != nil {
		t.Fatalf("SimilarQueries(partial): %v", err)
	}
	if len(got) == 0 {
		t.Fatal("no matches for partial query")
	}
	for _, s := range got {
		if !contains(s.Record.Tables, "WaterSalinity") {
			t.Errorf("partial match without WaterSalinity: %v", s.Record.Tables)
		}
	}
}

// TestPartialContextReadsNamesLikeSearch: text that does not parse is read by
// the one partial-name reader partial-query search uses. Its one corner: an
// identifier before any clause keyword names nothing — the search's rule,
// where completion once counted it as a column.
func TestPartialContextReadsNamesLikeSearch(t *testing.T) {
	for _, tc := range []struct {
		text            string
		tables, columns []string
	}{
		{"lake FROM WaterTemp", []string{"WaterTemp"}, nil},
		{"lake, temp", nil, nil},
		{"SELECT lake, w.temp FROM WaterTemp w WHERE", []string{"WaterTemp"}, []string{"lake", "temp"}},
	} {
		qc := contextOf(tc.text)
		if !slices.Equal(qc.tables, tc.tables) || !slices.Equal(qc.columns, tc.columns) {
			t.Errorf("contextOf(%q) = tables %q, columns %q; want %q, %q", tc.text, qc.tables, qc.columns, tc.tables, tc.columns)
		}
	}
	// With nothing named there is nothing to find similar queries by.
	r, _ := fixture(t)
	if _, err := r.SimilarQueries(context.Background(), admin, "lake, temp", 5); !errors.Is(err, metaquery.ErrEmptyQuery) {
		t.Errorf("SimilarQueries naming nothing: err = %v, want ErrEmptyQuery", err)
	}
}

func TestSimilarQueriesIncludeAnnotations(t *testing.T) {
	r, _ := fixture(t)
	got, err := r.SimilarQueries(context.Background(), admin, "SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x", 5)
	if err != nil {
		t.Fatal(err)
	}
	foundAnn := false
	for _, s := range got {
		for _, a := range s.Annotations {
			if strings.Contains(a, "Seattle lakes") {
				foundAnn = true
			}
		}
	}
	if !foundAnn {
		t.Errorf("annotation should surface in the similar-queries pane")
	}
}

func TestTutorial(t *testing.T) {
	r, _ := fixture(t)
	steps := r.Tutorial(context.Background(), admin, 2)
	if len(steps) == 0 {
		t.Fatal("no tutorial steps")
	}
	// The first step introduces the most popular relation.
	if steps[0].Table != "CityLocations" {
		t.Errorf("first tutorial relation = %q, want CityLocations", steps[0].Table)
	}
	for _, s := range steps {
		if len(s.PopularQueries) == 0 || len(s.PopularQueries) > 2 {
			t.Errorf("step %s has %d example queries, want 1..2", s.Table, len(s.PopularQueries))
		}
		if len(s.Columns) == 0 {
			t.Errorf("step %s has no columns", s.Table)
		}
	}
	text := RenderTutorial(steps)
	if !strings.Contains(text, "Relation CityLocations") || !strings.Contains(text, "example:") {
		t.Errorf("tutorial rendering missing content:\n%s", text)
	}
}

func TestRenderAssistPane(t *testing.T) {
	r, _ := fixture(t)
	partial := "SELECT * FROM WaterSalinity, WaterTemp WHERE "
	completions := r.Complete(admin, partial, 2)
	similar, err := r.SimilarQueries(context.Background(), admin, partial, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderAssistPane(completions, similar)
	for _, want := range []string{"Suggest:", "Similar Queries", "Score", "Diff", "Annotations"} {
		if !strings.Contains(out, want) {
			t.Errorf("pane missing %q:\n%s", want, out)
		}
	}
	if RenderAssistPane(nil, nil) == "" {
		t.Errorf("empty pane should still render headers")
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"watertemp", "watertemps", 1},
		{"kitten", "sitting", 3},
		{"", "abc", 3},
		{"tmep", "temp", 1}, // adjacent transposition counts as one edit
		{"salintiy", "salinity", 1},
	}
	for _, c := range cases {
		if got := editDistance(c.a, c.b); got != c.want {
			t.Errorf("editDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func contains(list []string, want string) bool {
	for _, s := range list {
		if s == want {
			return true
		}
	}
	return false
}

// The three functions below are the log scans the completion paths ran
// before the stats tracker became a constructor argument. They are kept here
// as the oracle the tracker's counters are held to.

// scanColumnCounts counts attribute usage across the visible queries
// referencing the context tables.
func scanColumnCounts(store *storage.Store, p storage.Principal, tables []string) map[string]int {
	set := stats.LowerSet(tables)
	counts := make(map[string]int)
	view := store.Snapshot()
	for _, t := range tables {
		view.ScanByTable(context.Background(), t, p, func(rec *storage.QueryRecord) bool {
			for _, attr := range rec.Attributes {
				if attr.Rel != "" && !set[strings.ToLower(attr.Rel)] {
					continue
				}
				name := attr.Attr
				if attr.Rel != "" {
					name = attr.Rel + "." + attr.Attr
				}
				counts[name]++
			}
			return true
		})
	}
	return counts
}

// scanPredicateCounts counts concrete (non-join) predicates across the
// visible queries referencing the context tables.
func scanPredicateCounts(store *storage.Store, p storage.Principal, tables []string) map[string]int {
	set := stats.LowerSet(tables)
	counts := make(map[string]int)
	view := store.Snapshot()
	for _, t := range tables {
		view.ScanByTable(context.Background(), t, p, func(rec *storage.QueryRecord) bool {
			for _, pr := range rec.Predicates {
				if pr.IsJoin {
					continue
				}
				if pr.Rel != "" && !set[strings.ToLower(pr.Rel)] {
					continue
				}
				counts[pr.Text()]++
			}
			return true
		})
	}
	return counts
}

// scanJoinCounts counts canonical join predicates whose two sides are both
// context tables, across the visible queries referencing them.
func scanJoinCounts(store *storage.Store, p storage.Principal, tables []string) map[string]int {
	set := stats.LowerSet(tables)
	counts := make(map[string]int)
	view := store.Snapshot()
	for _, t := range tables {
		view.ScanByTable(context.Background(), t, p, func(rec *storage.QueryRecord) bool {
			for _, pr := range rec.Predicates {
				if !pr.IsJoin {
					continue
				}
				if !set[strings.ToLower(pr.Rel)] || !set[strings.ToLower(pr.RightRel)] {
					continue
				}
				key, _, _ := pr.CanonicalJoin()
				counts[key]++
			}
			return true
		})
	}
	return counts
}

// TestCounterPathMatchesScanPath proves the stats counters the completion
// paths read hold exactly what a scan of the log counts, for an admin and for
// principals whose visible set the public+own bucket merge covers exactly.
func TestCounterPathMatchesScanPath(t *testing.T) {
	r, store := fixture(t)
	// Mix in private queries of a second user so the bucket merge is
	// exercised (alice's fixture queries are public).
	put := func(text, user string, vis storage.Visibility) {
		rec, err := storage.NewRecordFromSQL(text)
		if err != nil {
			t.Fatal(err)
		}
		rec.User = user
		rec.Visibility = vis
		mustPut(t, store, rec)
	}
	put("SELECT temp FROM WaterTemp WHERE temp < 7", "bob", storage.VisibilityPrivate)
	put("SELECT WaterTemp.lake FROM WaterTemp WHERE WaterTemp.temp > 12", "bob", storage.VisibilityPrivate)
	put("SELECT WaterSalinity.depth, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x",
		"bob", storage.VisibilityPrivate)

	contexts := [][]string{
		{"WaterTemp"},
		{"WaterSalinity", "WaterTemp"},
		{"CityLocations", "WaterSalinity"},
	}
	principals := []storage.Principal{
		admin,
		{User: "alice"},
		{User: "bob"},
		{User: "eve"}, // sees only public queries
	}
	for _, p := range principals {
		for _, tables := range contexts {
			if got, want := r.stats.ColumnCounts(p, tables), scanColumnCounts(store, p, tables); !reflect.DeepEqual(got, want) {
				t.Errorf("ColumnCounts(%+v, %v)\n got: %+v\nwant: %+v", p, tables, got, want)
			}
			if got, want := r.stats.PredicateCounts(p, tables), scanPredicateCounts(store, p, tables); !reflect.DeepEqual(got, want) {
				t.Errorf("PredicateCounts(%+v, %v)\n got: %+v\nwant: %+v", p, tables, got, want)
			}
			if got, want := r.stats.JoinCounts(p, tables), scanJoinCounts(store, p, tables); !reflect.DeepEqual(got, want) {
				t.Errorf("JoinCounts(%+v, %v)\n got: %+v\nwant: %+v", p, tables, got, want)
			}
		}
	}
}

// TestCompleteIsTheFourSuggestersConcatenated: Complete extracts the
// partial's context once and hands it to the four suggesters; the exported
// Suggest* entry points each extract it again. Both must say the same, on a
// partial that parses, one that only tokenizes, and a statement that parses
// but is no SELECT.
func TestCompleteIsTheFourSuggestersConcatenated(t *testing.T) {
	r, _ := fixture(t)
	for _, partial := range []string{
		"SELECT * FROM WaterSalinity, WaterTemp WHERE WaterTemp.temp < 18",
		"SELECT temp FROM WaterTemp",
		"SELECT * FROM WaterSalinity, WaterTemp WHERE ",
		"SELECT lake, temp FROM WaterTemp WHERE temp ",
		"SELECT ",
		"DELETE FROM WaterTemp WHERE temp < 18",
		"UPDATE WaterSalinity SET depth = 1",
		"'unterminated",
	} {
		for _, p := range []storage.Principal{admin, {User: "alice"}, {User: "eve"}} {
			for _, k := range []int{0, 2, 50} {
				var want []Completion
				want = append(want, r.SuggestTables(p, partial, k)...)
				want = append(want, r.SuggestColumns(p, partial, k)...)
				want = append(want, r.SuggestPredicates(p, partial, k)...)
				want = append(want, r.SuggestJoins(p, partial, k)...)
				got := r.Complete(p, partial, k)
				if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Errorf("Complete(%+v, %q, %d)\n got: %+v\nwant: %+v", p, partial, k, got, want)
				}
			}
		}
	}
}
