package metaquery

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/session"
	"repro/internal/storage"
)

// testCtx is the context every call in these tests runs under.
var testCtx = context.Background()

// query returns an unwrapper for a (Query, error) constructor that fails the
// test on error, so call sites stay one-liners.
func query(t *testing.T) func(Query, error) Query {
	return func(q Query, err error) Query {
		t.Helper()
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		return q
	}
}

// drain reads q as p to the end from the start.
func drain(t *testing.T, x *Executor, p storage.Principal, q Query) []Match {
	t.Helper()
	page, err := x.Page(testCtx, p, q, Cursor{}, 0)
	if err != nil {
		t.Fatalf("Page(%s): %v", q.Kind(), err)
	}
	return page.Matches
}

var (
	admin = storage.Principal{Admin: true}
	alice = storage.Principal{User: "alice", Groups: []string{"limnology"}}
	carol = storage.Principal{User: "carol", Groups: []string{"astro"}}
)

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

// mustPutBatch is mustPut for PutBatch.
func mustPutBatch(t testing.TB, s *storage.Store, recs []*storage.QueryRecord) []storage.QueryID {
	t.Helper()
	ids, errs := s.PutBatch(recs)
	if errs != nil {
		t.Errorf("PutBatch: %v", errs)
	}
	return ids
}

func put(t testing.TB, s *storage.Store, text, user string, vis storage.Visibility) storage.QueryID {
	t.Helper()
	rec, err := storage.NewRecordFromSQL(text)
	if err != nil {
		t.Fatalf("NewRecordFromSQL(%q): %v", text, err)
	}
	rec.User = user
	rec.Group = "limnology"
	rec.Visibility = vis
	rec.IssuedAt = time.Date(2009, 1, 5, 12, 0, 0, 0, time.UTC)
	return mustPut(t, s, rec)
}

func newFixture(t testing.TB) (*Executor, *storage.Store, map[string]storage.QueryID) {
	t.Helper()
	s := storage.NewStore()
	ids := map[string]storage.QueryID{}
	ids["correlate"] = put(t, s,
		"SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x AND WaterTemp.temp < 18",
		"alice", storage.VisibilityPublic)
	ids["correlate2"] = put(t, s,
		"SELECT s.salinity, t.temp FROM WaterSalinity s JOIN WaterTemp t ON s.loc_x = t.loc_x WHERE s.depth > 5",
		"bob", storage.VisibilityPublic)
	ids["tempOnly"] = put(t, s, "SELECT temp FROM WaterTemp WHERE temp > 20", "alice", storage.VisibilityPublic)
	ids["cities"] = put(t, s, "SELECT city FROM CityLocations WHERE state = 'WA'", "bob", storage.VisibilityPublic)
	ids["agg"] = put(t, s, "SELECT lake, AVG(temp) FROM WaterTemp GROUP BY lake", "alice", storage.VisibilityPublic)
	ids["nested"] = put(t, s, "SELECT lake FROM WaterTemp WHERE temp > (SELECT AVG(temp) FROM WaterTemp)", "bob", storage.VisibilityPublic)
	ids["private"] = put(t, s, "SELECT secret FROM PrivateNotes", "alice", storage.VisibilityPrivate)

	if err := s.Annotate(ids["correlate"], storage.Principal{User: "alice"}, storage.Annotation{
		Text: "find temp and salinity of Seattle lakes",
	}); err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	return New(s, session.AttachLive(s).SessionOf), s, ids
}

func matchIDs(matches []Match) map[storage.QueryID]bool {
	out := make(map[storage.QueryID]bool)
	for _, m := range matches {
		out[m.Record.ID] = true
	}
	return out
}

func TestKeywordSearch(t *testing.T) {
	x, _, ids := newFixture(t)
	matches := drain(t, x, admin, query(t)(Keywords("salinity")))
	got := matchIDs(matches)
	if !got[ids["correlate"]] || !got[ids["correlate2"]] {
		t.Errorf("keyword search missing correlation queries: %v", got)
	}
	if got[ids["cities"]] {
		t.Errorf("keyword search should not match the cities query")
	}
	// Multiple keywords must all match; annotations count.
	matches = drain(t, x, admin, query(t)(Keywords("Seattle", "salinity")))
	got = matchIDs(matches)
	if len(got) != 1 || !got[ids["correlate"]] {
		t.Errorf("annotation keyword search = %v, want only the annotated query", got)
	}
	// Annotation hits rank higher than text-only hits.
	matches = drain(t, x, admin, query(t)(Keywords("salinity")))
	if matches[0].Record.ID != ids["correlate"] {
		t.Errorf("annotated query should rank first, got %d", matches[0].Record.ID)
	}
	for _, keywords := range [][]string{nil, {""}, {"lake", ""}} {
		if _, err := Keywords(keywords...); !errors.Is(err, ErrEmptyQuery) {
			t.Errorf("Keywords(%q): err = %v, want ErrEmptyQuery", keywords, err)
		}
	}
}

func TestSubstringSearch(t *testing.T) {
	x, _, ids := newFixture(t)
	matches := drain(t, x, admin, query(t)(Substring("state = 'wa'")))
	got := matchIDs(matches)
	if len(got) != 1 || !got[ids["cities"]] {
		t.Errorf("substring search = %v", got)
	}
}

func TestSearchRespectsAccessControl(t *testing.T) {
	x, _, ids := newFixture(t)
	matches := drain(t, x, carol, query(t)(Keywords("secret")))
	if len(matches) != 0 {
		t.Errorf("carol should not find alice's private query")
	}
	matches = drain(t, x, alice, query(t)(Keywords("secret")))
	if got := matchIDs(matches); !got[ids["private"]] {
		t.Errorf("alice should find her own private query")
	}
}

func TestSQLMetaQueryFigure1(t *testing.T) {
	x, _, ids := newFixture(t)
	metaSQL := `SELECT Q.qid, Q.qText
		FROM Queries Q, Attributes A1, Attributes A2
		WHERE Q.qid = A1.qid AND Q.qid = A2.qid
		AND A1.attrName = 'salinity' AND A1.relName = 'WaterSalinity'
		AND A2.attrName = 'temp' AND A2.relName = 'WaterTemp'`
	res, matches, err := x.SQLMetaQuery(testCtx, admin, metaSQL)
	if err != nil {
		t.Fatalf("SQLMetaQuery: %v", err)
	}
	if res == nil || len(res.Rows) == 0 {
		t.Fatalf("no raw rows")
	}
	got := matchIDs(matches)
	if len(got) != 2 || !got[ids["correlate"]] || !got[ids["correlate2"]] {
		t.Errorf("Figure 1 meta-query = %v, want the two correlation queries", got)
	}
}

func TestSQLMetaQueryWithoutQID(t *testing.T) {
	x, _, _ := newFixture(t)
	res, matches, err := x.SQLMetaQuery(testCtx, admin, "SELECT COUNT(*) FROM Queries")
	if !errors.Is(err, ErrNoQIDColumn) {
		t.Fatalf("err = %v, want ErrNoQIDColumn", err)
	}
	if res == nil || len(matches) != 0 {
		t.Errorf("raw result should still be returned")
	}
	if res.Rows[0][0].Int != 7 {
		t.Errorf("count = %v, want 7", res.Rows[0][0])
	}
	// As a search there is no raw result to fall back on: the page is refused.
	if _, err := x.Page(testCtx, admin, Feature("SELECT COUNT(*) FROM Queries"), Cursor{}, 0); !errors.Is(err, ErrNoQIDColumn) {
		t.Errorf("Feature without qid: err = %v, want ErrNoQIDColumn", err)
	}
}

// TestFeatureChainedUsing: a meta-query whose second join names its USING
// column in the first join's right table runs, and equals the same join
// spelled with ON.
func TestFeatureChainedUsing(t *testing.T) {
	x, _, _ := newFixture(t)
	using := drain(t, x, admin, Feature("SELECT Q.qid FROM Queries Q JOIN DataSources D ON Q.qid = D.qid JOIN Attributes A USING (relName)"))
	on := drain(t, x, admin, Feature("SELECT Q.qid FROM Queries Q JOIN DataSources D ON Q.qid = D.qid JOIN Attributes A ON D.relName = A.relName"))
	if len(using) == 0 || !reflect.DeepEqual(matchIDs(using), matchIDs(on)) {
		t.Fatalf("USING chain matched %v, ON chain %v", matchIDs(using), matchIDs(on))
	}
}

func TestSQLMetaQueryInvalidSQL(t *testing.T) {
	x, _, _ := newFixture(t)
	if _, _, err := x.SQLMetaQuery(testCtx, admin, "SELEKT garbage"); err == nil {
		t.Error("expected error for invalid meta-query")
	}
}

func TestGenerateMetaQueryFromPartial(t *testing.T) {
	// The §2.2 example: the user has typed only the FROM clause.
	meta, err := GenerateMetaQuery("SELECT FROM WaterSalinity, WaterTemp")
	if err != nil {
		t.Fatalf("GenerateMetaQuery: %v", err)
	}
	for _, want := range []string{"DataSources", "relName = 'WaterSalinity'", "relName = 'WaterTemp'", "Q.qid"} {
		if !strings.Contains(meta, want) {
			t.Errorf("generated meta-query missing %q:\n%s", want, meta)
		}
	}
}

// TestGenerateMetaQueryEmpty: text that names nothing has no meta-query, and
// Partial refuses it as a search with nothing to look for.
func TestGenerateMetaQueryEmpty(t *testing.T) {
	for _, text := range []string{"SELECT", "", "lake SELECT", "SELECT 'x' FROM"} {
		if _, err := GenerateMetaQuery(text); err == nil {
			t.Errorf("GenerateMetaQuery(%q): expected error for contentless partial query", text)
		}
		if _, err := Partial(text); !errors.Is(err, ErrEmptyQuery) {
			t.Errorf("Partial(%q): err = %v, want ErrEmptyQuery", text, err)
		}
	}
}

func TestByPartialQueryEndToEnd(t *testing.T) {
	x, _, ids := newFixture(t)
	matches := drain(t, x, admin, query(t)(Partial("SELECT FROM WaterSalinity, WaterTemp")))
	got := matchIDs(matches)
	if len(got) != 2 || !got[ids["correlate"]] || !got[ids["correlate2"]] {
		t.Errorf("partial-query search = %v, want exactly the correlation queries", got)
	}
	if want := "names tables [WaterSalinity WaterTemp], attributes []"; matches[0].Why != want || matches[0].Score != 1 {
		t.Errorf("match = (%v, %q), want (1, %q)", matches[0].Score, matches[0].Why, want)
	}
	// Names compare byte for byte, as the generated meta-query's = did.
	if got := drain(t, x, admin, query(t)(Partial("SELECT FROM watertemp"))); len(got) != 0 {
		t.Errorf("a case mismatch matched %v", matchIDs(got))
	}
	got = matchIDs(drain(t, x, admin, query(t)(Partial("SELECT temp FROM WaterTemp WHERE"))))
	if !got[ids["tempOnly"]] || !got[ids["correlate"]] || got[ids["cities"]] {
		t.Errorf("tables and attributes = %v", got)
	}
}

func TestByStructure(t *testing.T) {
	x, _, ids := newFixture(t)

	// Queries joining WaterSalinity and WaterTemp.
	matches := drain(t, x, admin, Structure(StructuralCondition{RequireJoinBetween: [2]string{"WaterSalinity", "WaterTemp"}}))
	got := matchIDs(matches)
	if len(got) != 2 || !got[ids["correlate"]] || !got[ids["correlate2"]] {
		t.Errorf("join condition = %v", got)
	}

	// Queries with a selection predicate on temp.
	matches = drain(t, x, admin, Structure(StructuralCondition{RequirePredicateOn: [2]string{"WaterTemp", "temp"}}))
	got = matchIDs(matches)
	if !got[ids["correlate"]] || !got[ids["tempOnly"]] {
		t.Errorf("predicate condition = %v", got)
	}

	// Aggregate + group-by condition.
	matches = drain(t, x, admin, Structure(StructuralCondition{RequireAggregate: "AVG", RequireGroupBy: "lake"}))
	got = matchIDs(matches)
	if len(got) != 1 || !got[ids["agg"]] {
		t.Errorf("aggregate condition = %v", got)
	}

	// Nested queries.
	matches = drain(t, x, admin, Structure(StructuralCondition{RequireNested: true}))
	got = matchIDs(matches)
	if len(got) != 1 || !got[ids["nested"]] {
		t.Errorf("nested condition = %v", got)
	}

	// Minimum table count.
	matches = drain(t, x, admin, Structure(StructuralCondition{MinTables: 2}))
	got = matchIDs(matches)
	if !got[ids["correlate"]] || got[ids["tempOnly"]] {
		t.Errorf("min-tables condition = %v", got)
	}

	// Required tables.
	matches = drain(t, x, admin, Structure(StructuralCondition{RequireTables: []string{"CityLocations"}}))
	got = matchIDs(matches)
	if len(got) != 1 || !got[ids["cities"]] {
		t.Errorf("require-tables condition = %v", got)
	}
}

func TestByStructureRuntimeConditions(t *testing.T) {
	x, s, ids := newFixture(t)
	if err := s.UpdateStats(ids["tempOnly"], storage.RuntimeStats{ExecTime: 2 * time.Millisecond, ResultRows: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateStats(ids["cities"], storage.RuntimeStats{ExecTime: 900 * time.Millisecond, ResultRows: 100000}); err != nil {
		t.Fatal(err)
	}
	matches := drain(t, x, admin, Structure(StructuralCondition{MaxResultRows: 10, MaxExecTimeMillis: 10}))
	got := matchIDs(matches)
	if !got[ids["tempOnly"]] {
		t.Errorf("fast small query should match: %v", got)
	}
	if got[ids["cities"]] {
		t.Errorf("slow large query should not match")
	}
}

func TestByData(t *testing.T) {
	x, s, ids := newFixture(t)
	// Attach output samples: the paper's example distinguishes Lake
	// Washington from Lake Union via 'temp < 18'.
	coldID := put(t, s, "SELECT lake FROM WaterTemp WHERE temp < 18", "alice", storage.VisibilityPublic)
	warmID := put(t, s, "SELECT lake FROM WaterTemp WHERE temp < 25", "alice", storage.VisibilityPublic)
	attachSample(t, s, coldID, [][]string{{"Lake Washington"}, {"Lake Sammamish"}})
	attachSample(t, s, warmID, [][]string{{"Lake Washington"}, {"Lake Union"}, {"Lake Sammamish"}})

	got := matchIDs(drain(t, x, admin, query(t)(ByData([]string{"Lake Washington"}, []string{"Lake Union"}))))
	if !got[coldID] {
		t.Errorf("query separating the examples should match")
	}
	if got[warmID] {
		t.Errorf("query including the excluded tuple should not match")
	}
	// Queries without samples never match.
	if got[ids["tempOnly"]] {
		t.Errorf("sample-less query should not match")
	}
	// Naming no example would list every sampled query.
	if _, err := ByData(nil, []string{}); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("ByData with no example: err = %v, want ErrEmptyQuery", err)
	}
}

// attachSample sets a record's output sample by replaying a put of the
// record with it (samples are normally written by the profiler at
// submission time).
func attachSample(t testing.TB, s *storage.Store, id storage.QueryID, rows [][]string) {
	t.Helper()
	rec, err := s.Get(id, storage.Principal{Admin: true})
	if err != nil {
		t.Fatal(err)
	}
	rec.Sample = &storage.OutputSample{Columns: []string{"lake"}, Rows: rows, TotalRows: len(rows)}
	if err := s.Apply(&storage.Mutation{Op: storage.OpPut, Record: rec}); err != nil {
		t.Fatal(err)
	}
}

// probe parses the query text a similarity search is about.
func probe(t *testing.T, text string) *storage.QueryRecord {
	t.Helper()
	rec, err := storage.NewRecordFromSQL(text)
	if err != nil {
		t.Fatalf("NewRecordFromSQL(%q): %v", text, err)
	}
	return rec
}

func TestKNN(t *testing.T) {
	x, _, ids := newFixture(t)
	matches := drain(t, x, admin, Similar(probe(t, "SELECT temp FROM WaterTemp WHERE temp > 15"), 3))
	if len(matches) == 0 {
		t.Fatal("no neighbours")
	}
	if len(matches) > 3 {
		t.Errorf("k not respected: %d", len(matches))
	}
	// The most similar logged query should be the WaterTemp-only one.
	if matches[0].Record.ID != ids["tempOnly"] {
		t.Errorf("nearest neighbour = %d, want %d", matches[0].Record.ID, ids["tempOnly"])
	}
	// Scores are sorted descending.
	for i := 1; i < len(matches); i++ {
		if matches[i].Score > matches[i-1].Score {
			t.Errorf("matches not sorted")
		}
	}
}

// TestKNNInvalidQuery: an unparsable kNN probe is refused where it is built,
// before any Similar query over the log exists.
func TestKNNInvalidQuery(t *testing.T) {
	if rec, err := storage.NewRecordFromSQL("SELEKT broken"); err == nil {
		t.Errorf("expected parse error, got probe %+v", rec)
	}
}

func TestKNNAccessControl(t *testing.T) {
	x, _, ids := newFixture(t)
	for _, m := range drain(t, x, carol, Similar(probe(t, "SELECT secret FROM PrivateNotes"), 5)) {
		if m.Record.ID == ids["private"] {
			t.Errorf("private query leaked to carol via KNN")
		}
	}
}

// ---------------------------------------------------------------------------
// Context cancellation
// ---------------------------------------------------------------------------

// cancelAfterCtx is a context whose Err flips to Canceled after the first
// call, making mid-scan abort deterministic to observe.
type cancelAfterCtx struct {
	context.Context
	calls int
}

func (c *cancelAfterCtx) Err() error {
	c.calls++
	return context.Canceled
}

func TestCancelledContextAbortsInFlightScan(t *testing.T) {
	store := storage.NewStore()
	const total = 10 * storage.ScanCheckEvery
	for i := 0; i < total; i++ {
		rec, err := storage.NewRecordFromSQL("SELECT lake FROM WaterTemp")
		if err != nil {
			t.Fatal(err)
		}
		rec.User = "alice"
		rec.Visibility = storage.VisibilityPublic
		mustPut(t, store, rec)
	}

	// White box: the periodic check stops the scan at the first check
	// boundary, long before the log is exhausted.
	ctx := &cancelAfterCtx{Context: context.Background()}
	visited := 0
	store.Snapshot().ScanAfter(ctx, 0, admin, func(*storage.QueryRecord) bool {
		visited++
		return true
	})
	if visited >= total {
		t.Fatalf("scan visited all %d records despite cancellation", visited)
	}
	if visited > storage.ScanCheckEvery {
		t.Fatalf("scan visited %d records, want <= %d (one check interval)", visited, storage.ScanCheckEvery)
	}

	// Black box: every search method reports the cancellation instead of a
	// partial result.
	x := New(store, session.AttachLive(store).SessionOf)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []Query{
		query(t)(Keywords("lake")),
		query(t)(Substring("watertemp")),
		Feature("SELECT qid FROM Queries"),
		query(t)(Partial("SELECT FROM WaterTemp")),
		query(t)(ByData([]string{"x"}, nil)),
		Structure(StructuralCondition{MinTables: 1}),
		Similar(probe(t, "SELECT lake FROM WaterTemp"), 3),
	} {
		if _, err := x.Page(cancelled, admin, q, Cursor{}, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s on cancelled ctx: err = %v", q.Kind(), err)
		}
	}
	if _, _, err := x.SQLMetaQuery(cancelled, admin, "SELECT qid FROM Queries"); !errors.Is(err, context.Canceled) {
		t.Fatalf("SQLMetaQuery on cancelled ctx: err = %v", err)
	}
}

// TestFeaturePagesReadOnePinnedView: every page of a SQL meta-query
// materialises the records of the view its cursor pins, so a query logged
// between two pages is neither examined nor matched by the second.
func TestFeaturePagesReadOnePinnedView(t *testing.T) {
	s := storage.NewStore()
	for _, text := range []string{"SELECT a FROM t1", "SELECT b FROM t2", "SELECT c FROM t3"} {
		put(t, s, text, "alice", storage.VisibilityPublic)
	}
	x := New(s, session.AttachLive(s).SessionOf)
	q := Feature("SELECT qid FROM Queries")
	first, err := x.Page(testCtx, admin, q, Cursor{}, 1)
	if err != nil || len(first.Matches) != 1 {
		t.Fatalf("page 1: %d matches, err %v", len(first.Matches), err)
	}
	late := put(t, s, "SELECT d FROM t4", "alice", storage.VisibilityPublic)
	last := first.Matches[0]
	second, err := x.Page(testCtx, admin, q, Cursor{High: first.High, After: last.Record.ID, Score: last.Score, Pos: true}, 0)
	if err != nil {
		t.Fatalf("page 2: %v", err)
	}
	if second.Examined != first.Examined {
		t.Errorf("page 2 examined %d records, page 1 %d: want one pinned view", second.Examined, first.Examined)
	}
	for _, m := range second.Matches {
		if m.Record.ID == late {
			t.Errorf("page 2 matched query %d, logged after the pin %d", late, first.High)
		}
	}
}

// TestEveryKindCountsTheRecordsItExamined: a page's Examined is the number
// of records its scans loaded, those the principal may not see included, for
// every kind alike. Over a log of alice's private queries, bob's page of each
// kind matches nothing and examines all of them.
func TestEveryKindCountsTheRecordsItExamined(t *testing.T) {
	s := storage.NewStore()
	const total = 10 * storage.ScanCheckEvery
	for i := 0; i < total; i++ {
		put(t, s, "SELECT lake, temp FROM WaterTemp WHERE temp < 12", "alice", storage.VisibilityPrivate)
	}
	byKind := map[string]Query{
		"keyword":   query(t)(Keywords("watertemp")),
		"substring": query(t)(Substring("watertemp")),
		"metaquery": Feature("SELECT qid FROM Queries"),
		"partial":   query(t)(Partial("SELECT lake FROM WaterTemp")),
		"bydata":    query(t)(ByData([]string{"x"}, nil)),
		"structure": Structure(StructuralCondition{MinTables: 1}),
		"similar":   Similar(probe(t, "SELECT lake FROM WaterTemp"), 3),
	}
	x := New(s, session.AttachLive(s).SessionOf)
	bob := storage.Principal{User: "bob"}
	for _, kind := range Kinds {
		q, ok := byKind[kind]
		if !ok {
			t.Errorf("kind %s: no query to read", kind)
			continue
		}
		page, err := x.Page(testCtx, bob, q, Cursor{}, 10)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(page.Matches) != 0 || page.Examined != total {
			t.Errorf("%s: bob's page has %d matches and examined %d records, want 0 and %d", kind, len(page.Matches), page.Examined, total)
		}
	}

	// An annotated record that matches at the base score is examined once:
	// the text kinds' annotated scan loads it, and the selection's scan
	// hands that version back without loading it again.
	one := storage.NewStore()
	id := put(t, one, "SELECT lake FROM WaterTemp", "alice", storage.VisibilityPublic)
	if err := one.Annotate(id, storage.Principal{User: "alice"}, storage.Annotation{Text: "lake survey"}); err != nil {
		t.Fatal(err)
	}
	x = New(one, session.AttachLive(one).SessionOf)
	for _, kind := range []string{"keyword", "substring"} {
		page, err := x.Page(testCtx, bob, byKind[kind], Cursor{}, 10)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(page.Matches) != 1 || page.Examined != 1 {
			t.Errorf("%s over one annotated record: %d matches, examined %d records, want 1 and 1", kind, len(page.Matches), page.Examined)
		}
	}
}

// TestFeatureMaterialisationHonoursContext: a cancelled context stops the
// materialisation of the feature relations within one check interval.
func TestFeatureMaterialisationHonoursContext(t *testing.T) {
	s := storage.NewStore()
	const total = 10 * storage.ScanCheckEvery
	for i := 0; i < total; i++ {
		put(t, s, "SELECT lake FROM WaterTemp", "alice", storage.VisibilityPublic)
	}
	visited := 0
	counted := func(*storage.QueryRecord) int64 { visited++; return 0 }
	ctx := &cancelAfterCtx{Context: context.Background()}
	if _, _, err := materializeFeatureRelations(ctx, s.Snapshot(), admin, counted); !errors.Is(err, context.Canceled) {
		t.Fatalf("materializeFeatureRelations on a cancelled context: err = %v", err)
	}
	if visited > storage.ScanCheckEvery {
		t.Fatalf("materialised %d records after cancellation, want <= %d (one check interval)", visited, storage.ScanCheckEvery)
	}
}
