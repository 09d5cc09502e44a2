package storage

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/sql"
)

var (
	alice = Principal{User: "alice", Groups: []string{"limnology"}}
	bob   = Principal{User: "bob", Groups: []string{"limnology"}}
	carol = Principal{User: "carol", Groups: []string{"astro"}}
	admin = Principal{User: "root", Admin: true}
)

// mustPut stores rec and fails the test (without stopping it: writers run on
// other goroutines too) if the store refuses it.
func mustPut(t testing.TB, s *Store, rec *QueryRecord) QueryID {
	t.Helper()
	id, err := s.Put(rec)
	if err != nil {
		t.Errorf("Put: %v", err)
	}
	return id
}

// mustPutBatch is mustPut for PutBatch.
func mustPutBatch(t testing.TB, s *Store, recs []*QueryRecord) []QueryID {
	t.Helper()
	ids, errs := s.PutBatch(recs)
	if errs != nil {
		t.Errorf("PutBatch: %v", errs)
	}
	return ids
}

func putQuery(t testing.TB, s *Store, text, user, group string, vis Visibility) QueryID {
	t.Helper()
	rec, err := NewRecordFromSQL(text)
	if err != nil {
		t.Fatalf("NewRecordFromSQL(%q): %v", text, err)
	}
	rec.User = user
	rec.Group = group
	rec.Visibility = vis
	return mustPut(t, s, rec)
}

func newTestStore(t testing.TB) (*Store, []QueryID) {
	t.Helper()
	s := NewStore()
	ids := []QueryID{
		putQuery(t, s, "SELECT * FROM WaterTemp WHERE temp < 18", "alice", "limnology", VisibilityGroup),
		putQuery(t, s, "SELECT salinity, temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x", "alice", "limnology", VisibilityGroup),
		putQuery(t, s, "SELECT city FROM CityLocations WHERE state = 'WA'", "bob", "limnology", VisibilityPrivate),
		putQuery(t, s, "SELECT ra, dec FROM Stars WHERE magnitude < 6", "carol", "astro", VisibilityPublic),
	}
	return s, ids
}

func TestPutAndGet(t *testing.T) {
	s, ids := newTestStore(t)
	rec, err := s.Get(ids[0], alice)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if rec.User != "alice" || rec.Tables[0] != "WaterTemp" {
		t.Errorf("rec = %+v", rec)
	}
	if rec.Template == "" || rec.Fingerprint == 0 {
		t.Errorf("template/fingerprint not filled: %+v", rec)
	}
	if !rec.Valid {
		t.Errorf("new records should be valid")
	}
}

func TestGetNotFound(t *testing.T) {
	s, _ := newTestStore(t)
	if _, err := s.Get(QueryID(9999), admin); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestRecordFeatureExtraction(t *testing.T) {
	s, ids := newTestStore(t)
	rec, _ := s.Get(ids[1], alice)
	if len(rec.Tables) != 2 {
		t.Errorf("tables = %v", rec.Tables)
	}
	// The join predicate should be recorded.
	foundJoin := false
	for _, p := range rec.Predicates {
		if p.IsJoin {
			foundJoin = true
		}
	}
	if !foundJoin {
		t.Errorf("join predicate missing: %+v", rec.Predicates)
	}
	if len(rec.Features) == 0 {
		t.Errorf("feature set empty")
	}
}

func TestNewRecordFromSQLInvalid(t *testing.T) {
	if _, err := NewRecordFromSQL("not valid sql"); err == nil {
		t.Error("expected parse error")
	}
}

func TestNewRecordFromSQLNonSelect(t *testing.T) {
	rec, err := NewRecordFromSQL("INSERT INTO t VALUES (1)")
	if err != nil {
		t.Fatalf("NewRecordFromSQL: %v", err)
	}
	if len(rec.Tables) != 0 {
		t.Errorf("DML should have no extracted tables")
	}
}

func TestAccessControl(t *testing.T) {
	s, ids := newTestStore(t)

	// Group visibility: bob (same group) can see alice's query.
	if _, err := s.Get(ids[0], bob); err != nil {
		t.Errorf("bob should see alice's group-visible query: %v", err)
	}
	// carol (different group) cannot.
	if _, err := s.Get(ids[0], carol); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("carol access err = %v, want ErrAccessDenied", err)
	}
	// Private visibility: only bob sees bob's private query.
	if _, err := s.Get(ids[2], alice); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("alice should not see bob's private query: %v", err)
	}
	if _, err := s.Get(ids[2], bob); err != nil {
		t.Errorf("bob should see his own query: %v", err)
	}
	// Public visibility: anyone sees carol's query.
	if _, err := s.Get(ids[3], alice); err != nil {
		t.Errorf("alice should see public query: %v", err)
	}
	// Admin sees everything.
	for _, id := range ids {
		if _, err := s.Get(id, admin); err != nil {
			t.Errorf("admin should see query %d: %v", id, err)
		}
	}
}

func TestAllRespectsVisibility(t *testing.T) {
	s, _ := newTestStore(t)
	if n := len(s.Snapshot().Records(admin)); n != 4 {
		t.Errorf("admin sees %d, want 4", n)
	}
	if n := len(s.Snapshot().Records(alice)); n != 3 {
		t.Errorf("alice sees %d, want 3 (her 2 + public)", n)
	}
	if n := len(s.Snapshot().Records(carol)); n != 1 {
		t.Errorf("carol sees %d, want 1", n)
	}
}

// visited runs one View scan and returns how many records it was handed.
func visited(scan func(fn func(*QueryRecord) bool)) int {
	n := 0
	scan(func(*QueryRecord) bool { n++; return true })
	return n
}

func byTable(s *Store, table string, p Principal) int {
	return visited(func(fn func(*QueryRecord) bool) { s.Snapshot().ScanByTable(table, p, fn) })
}

func TestIndexes(t *testing.T) {
	s, _ := newTestStore(t)
	view := s.Snapshot()
	if got := byTable(s, "WaterTemp", admin); got != 2 {
		t.Errorf("ScanByTable(WaterTemp) = %d, want 2", got)
	}
	if got := byTable(s, "watertemp", admin); got != 2 {
		t.Errorf("ScanByTable should be case-insensitive")
	}
	if got := visited(func(fn func(*QueryRecord) bool) { view.ScanByUserAfter("alice", 0, admin, fn) }); got != 2 {
		t.Errorf("ScanByUserAfter(alice) = %d, want 2", got)
	}
	if got := visited(func(fn func(*QueryRecord) bool) { view.ScanByUserAfter("alice", 0, carol, fn) }); got != 0 {
		t.Errorf("carol should not see alice's queries via ScanByUserAfter")
	}
}

func TestAnnotations(t *testing.T) {
	s, ids := newTestStore(t)
	err := s.Annotate(ids[0], alice, Annotation{Text: "find temp and salinity of Seattle lakes"})
	if err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	// Group member can annotate too.
	if err := s.Annotate(ids[0], bob, Annotation{Text: "reused for 2009 survey"}); err != nil {
		t.Fatalf("Annotate by group member: %v", err)
	}
	// Non-member cannot.
	if err := s.Annotate(ids[0], carol, Annotation{Text: "nope"}); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("carol annotate err = %v, want ErrAccessDenied", err)
	}
	rec, _ := s.Get(ids[0], alice)
	if len(rec.Annotations) != 2 {
		t.Fatalf("annotations = %d, want 2", len(rec.Annotations))
	}
	if rec.Annotations[0].Author != "alice" || rec.Annotations[0].At.IsZero() {
		t.Errorf("annotation author/time not defaulted: %+v", rec.Annotations[0])
	}
	if err := s.Annotate(QueryID(999), alice, Annotation{Text: "x"}); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing query annotate err = %v", err)
	}
}

func TestSetVisibility(t *testing.T) {
	s, ids := newTestStore(t)
	// Bob makes his private query group-visible.
	if err := s.SetVisibility(ids[2], bob, VisibilityGroup); err != nil {
		t.Fatalf("SetVisibility: %v", err)
	}
	if _, err := s.Get(ids[2], alice); err != nil {
		t.Errorf("alice should now see bob's group query: %v", err)
	}
	// Alice cannot change bob's visibility.
	if err := s.SetVisibility(ids[2], alice, VisibilityPublic); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("err = %v, want ErrAccessDenied", err)
	}
	// Admin can.
	if err := s.SetVisibility(ids[2], admin, VisibilityPublic); err != nil {
		t.Errorf("admin SetVisibility: %v", err)
	}
}

func TestDelete(t *testing.T) {
	s, ids := newTestStore(t)
	if err := s.Delete(ids[0], bob); !errors.Is(err, ErrAccessDenied) {
		t.Errorf("bob deleting alice's query err = %v, want ErrAccessDenied", err)
	}
	if err := s.Delete(ids[0], alice); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get(ids[0], admin); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted query still retrievable")
	}
	if got := byTable(s, "WaterTemp", admin); got != 1 {
		t.Errorf("index not updated after delete: %d", got)
	}
	if s.Count() != 3 {
		t.Errorf("count = %d, want 3", s.Count())
	}
	if err := s.Delete(QueryID(12345), admin); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleting missing query err = %v", err)
	}
}

// TestSessionsAndEdges: sessions and their edges live in the session
// detector, not the store, and quality is computed from the record on read.
// An older build's session assignment, edge or stored quality score, replayed
// from its log by the upgrade, changes nothing and reaches no subscriber,
// whether or not the queries it names exist.
func TestSessionsAndEdges(t *testing.T) {
	s, ids := newTestStore(t)
	seen := 0
	s.Subscribe("count", func(*Mutation) { seen++ }, SubscribeOptions{})
	before := s.State()
	replayed := [][]byte{[]byte(parentAssignSession), []byte(parentAddEdge), []byte(parentSetQuality),
		olderOp(codeAssignSession, ids[0]), olderOp(codeAddEdge, ids[1]), olderOp(codeSetQuality, ids[2])}
	for _, p := range replayed {
		if err := applyOlder(s, p); err != nil {
			t.Errorf("replaying op %d: %v", p[1], err)
		}
	}
	if seen != 0 {
		t.Errorf("%d replayed session and quality mutations reached the bus", seen)
	}
	if !reflect.DeepEqual(s.State(), before) {
		t.Error("replayed session and quality mutations changed the store")
	}
}

func TestMaintenanceState(t *testing.T) {
	s, ids := newTestStore(t)
	if err := s.MarkInvalid(ids[0], "column WaterTemp.temp dropped"); err != nil {
		t.Fatalf("MarkInvalid: %v", err)
	}
	rec, _ := s.Get(ids[0], alice)
	if rec.Valid || rec.InvalidReason == "" {
		t.Errorf("record should be invalid: %+v", rec)
	}
	invalid := s.InvalidQueries()
	if len(invalid) != 1 || invalid[0] != ids[0] {
		t.Errorf("InvalidQueries = %v", invalid)
	}
	if err := s.MarkValid(ids[0]); err != nil {
		t.Fatalf("MarkValid: %v", err)
	}
	if len(s.InvalidQueries()) != 0 {
		t.Errorf("invalid list should be empty after MarkValid")
	}

	if err := s.MarkStatsStale(ids[1], true); err != nil {
		t.Fatalf("MarkStatsStale: %v", err)
	}
	if got := s.StaleQueries(); len(got) != 1 || got[0] != ids[1] {
		t.Errorf("StaleQueries = %v", got)
	}
	if err := s.UpdateStats(ids[1], RuntimeStats{ExecTime: 5 * time.Millisecond, ResultRows: 42}); err != nil {
		t.Fatalf("UpdateStats: %v", err)
	}
	rec, _ = s.Get(ids[1], alice)
	if rec.StatsStale || rec.Stats.ResultRows != 42 {
		t.Errorf("stats not updated: %+v", rec.Stats)
	}
}

// TestQualityScore: the §4.4 quality measure ranks a valid, annotated, fast
// query over one table above an invalid, failing, slow four-way join, stays
// in [0, 1], and follows the record's maintenance state as it changes.
func TestQualityScore(t *testing.T) {
	good := &QueryRecord{
		QueryShape:  &QueryShape{Analysis: sql.Analysis{Tables: []string{"WaterTemp"}}},
		Valid:       true,
		Annotations: []Annotation{{Text: "documented"}},
		Stats:       RuntimeStats{ExecTime: time.Millisecond, ResultRows: 5},
	}
	bad := &QueryRecord{
		QueryShape: &QueryShape{Analysis: sql.Analysis{Tables: []string{"A", "B", "C", "D"}}},
		Valid:      false,
		Stats:      RuntimeStats{ExecTime: 10 * time.Second, Error: "boom"},
	}
	gs, bs := good.Quality(), bad.Quality()
	if gs <= bs {
		t.Errorf("good quality %v should exceed bad quality %v", gs, bs)
	}
	if gs > 1 || bs < 0 {
		t.Errorf("scores out of range: %v %v", gs, bs)
	}

	s, ids := newTestStore(t)
	quality := func() float64 {
		rec, err := s.Get(ids[0], admin)
		if err != nil {
			t.Fatal(err)
		}
		return rec.Quality()
	}
	valid := quality()
	if err := s.MarkInvalid(ids[0], "column dropped"); err != nil {
		t.Fatal(err)
	}
	if q := quality(); q >= valid {
		t.Errorf("quality %v after MarkInvalid, want below %v", q, valid)
	}
	if err := s.MarkValid(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Annotate(ids[0], alice, Annotation{Text: "documented"}); err != nil {
		t.Fatal(err)
	}
	if q := quality(); q <= valid {
		t.Errorf("quality %v after an annotation, want above %v", q, valid)
	}
}

// TestScanByTableSkipsRecordsRetextedOffTheTable re-texts a record to
// another table while a by-table scan is under way: the scan, which captured
// the table's postings before it reached the record, must not yield it.
func TestScanByTableSkipsRecordsRetextedOffTheTable(t *testing.T) {
	s := NewStore()
	first := mustPut(t, s, mustRecord(t, "SELECT a FROM T1"))
	second := mustPut(t, s, mustRecord(t, "SELECT b FROM T1 WHERE b > 1"))
	var got []QueryID
	s.Snapshot().ScanByTable("t1", admin, func(rec *QueryRecord) bool {
		got = append(got, rec.ID)
		if rec.ID == first {
			if err := s.ReplaceText(second, mustRecord(t, "SELECT b FROM T2 WHERE b > 1")); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	if rec, _ := s.Get(second, admin); !slices.Equal(rec.Tables, []string{"T2"}) {
		t.Fatalf("q%d references %v after the re-text, want [T2]", second, rec.Tables)
	}
	if !slices.Equal(got, []QueryID{first}) {
		t.Errorf("ScanByTable(t1) yielded %v, want [%d]: q%d no longer references T1", got, first, second)
	}
}

func TestReplaceText(t *testing.T) {
	s, ids := newTestStore(t)
	updated, err := NewRecordFromSQL("SELECT * FROM LakeTemperatures WHERE temp < 18")
	if err != nil {
		t.Fatalf("NewRecordFromSQL: %v", err)
	}
	if err := s.ReplaceText(ids[0], updated); err != nil {
		t.Fatalf("ReplaceText: %v", err)
	}
	rec, _ := s.Get(ids[0], alice)
	if rec.Tables[0] != "LakeTemperatures" {
		t.Errorf("tables = %v", rec.Tables)
	}
	// Index follows the rewrite.
	if got := byTable(s, "LakeTemperatures", admin); got != 1 {
		t.Errorf("ScanByTable(LakeTemperatures) = %d, want 1", got)
	}
	if got := byTable(s, "WaterTemp", admin); got != 1 {
		t.Errorf("ScanByTable(WaterTemp) = %d, want 1 (one other query remains)", got)
	}
	if err := s.ReplaceText(QueryID(999), updated); !errors.Is(err, ErrNotFound) {
		t.Errorf("ReplaceText missing err = %v", err)
	}
}

func TestCloneIsolation(t *testing.T) {
	s, ids := newTestStore(t)
	rec, _ := s.Get(ids[0], alice)
	rec.Tables[0] = "Mutated"
	rec.Text = "mutated"
	rec2, _ := s.Get(ids[0], alice)
	if rec2.Tables[0] == "Mutated" || rec2.Text == "mutated" {
		t.Errorf("Get should return a copy, store was mutated")
	}
}

func TestVisibilityString(t *testing.T) {
	if VisibilityPrivate.String() != "private" || VisibilityGroup.String() != "group" ||
		VisibilityPublic.String() != "public" || Visibility(99).String() != "unknown" {
		t.Error("Visibility.String labels wrong")
	}
}

func TestConcurrentPutAndRead(t *testing.T) {
	s := NewStore()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			rec, err := NewRecordFromSQL("SELECT * FROM WaterTemp WHERE temp < 18")
			if err != nil {
				t.Errorf("NewRecordFromSQL: %v", err)
				return
			}
			rec.User = "alice"
			mustPut(t, s, rec)
		}
	}()
	for i := 0; i < 200; i++ {
		s.Snapshot().Records(admin)
		byTable(s, "WaterTemp", admin)
		s.DistinctCounts()
	}
	<-done
	if s.Count() != 200 {
		t.Errorf("count = %d, want 200", s.Count())
	}
}

func TestRecordAnalysisRoundTrip(t *testing.T) {
	rec, err := NewRecordFromSQL("SELECT AVG(temp) FROM WaterTemp WHERE temp < 18 GROUP BY lake")
	if err != nil {
		t.Fatalf("NewRecordFromSQL: %v", err)
	}
	a := &rec.Analysis
	if len(a.Tables) != 1 || a.Tables[0] != "WaterTemp" {
		t.Errorf("analysis tables = %v", a.Tables)
	}
	if len(a.Predicates) != 1 || a.Predicates[0].Attr != "temp" {
		t.Errorf("analysis predicates = %+v", a.Predicates)
	}
	if len(a.Aggregates) != 1 || a.Aggregates[0] != "AVG" {
		t.Errorf("analysis aggregates = %v", a.Aggregates)
	}
	if len(a.GroupBy) != 1 {
		t.Errorf("analysis group by = %v", a.GroupBy)
	}
}
