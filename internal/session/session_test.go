package session

import (
	"fmt"
	"strings"
	"testing"
	"time"

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

// makeRecord builds a stored record at a given offset from a base time.
func makeRecord(t testing.TB, store *storage.Store, user, text string, at time.Time) *storage.QueryRecord {
	t.Helper()
	rec, err := storage.NewRecordFromSQL(text)
	if err != nil {
		t.Fatalf("NewRecordFromSQL(%q): %v", text, err)
	}
	rec.User = user
	rec.Visibility = storage.VisibilityPublic
	rec.IssuedAt = at
	mustPut(t, store, rec)
	return rec
}

// figure2Trace reproduces the query session of Figure 2: the user starts from
// WaterTemp, adds WaterSalinity, tries several constants on temp, settles on
// temp < 18 and finally adds two location join predicates.
func figure2Trace(t testing.TB, store *storage.Store, user string, base time.Time) []*storage.QueryRecord {
	t.Helper()
	queries := []string{
		"SELECT * FROM WaterTemp WHERE temp < 22",
		"SELECT * FROM WaterTemp, WaterSalinity WHERE temp < 22",
		"SELECT * FROM WaterTemp, WaterSalinity WHERE temp < 10",
		"SELECT * FROM WaterTemp, WaterSalinity WHERE temp < 18",
		"SELECT * FROM WaterTemp T, WaterSalinity S, CityLocations L WHERE T.temp < 18 AND S.loc_x = T.loc_x",
		"SELECT * FROM WaterTemp T, WaterSalinity S, CityLocations L WHERE T.temp < 18 AND S.loc_x = T.loc_x AND S.loc_y = T.loc_y",
	}
	var out []*storage.QueryRecord
	for i, q := range queries {
		out = append(out, makeRecord(t, store, user, q, base.Add(time.Duration(i)*time.Minute)))
	}
	return out
}

func TestDetectSingleSession(t *testing.T) {
	store := storage.NewStore()
	base := time.Date(2009, 1, 5, 14, 30, 0, 0, time.UTC)
	figure2Trace(t, store, "nodira", base)

	sessions := Detect(store.Snapshot().Records(admin))
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(sessions))
	}
	s := sessions[0]
	if len(s.Queries) != 6 {
		t.Errorf("session length = %d, want 6", len(s.Queries))
	}
	if len(s.Edges) != 5 {
		t.Errorf("edges = %d, want 5", len(s.Edges))
	}
	if s.Duration() != 5*time.Minute {
		t.Errorf("duration = %v, want 5m", s.Duration())
	}
}

func TestDetectSplitsOnLongGap(t *testing.T) {
	store := storage.NewStore()
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	makeRecord(t, store, "alice", "SELECT * FROM WaterTemp WHERE temp < 18", base)
	makeRecord(t, store, "alice", "SELECT * FROM WaterTemp WHERE temp < 15", base.Add(2*time.Minute))
	// A 2-hour break, then a new analysis.
	makeRecord(t, store, "alice", "SELECT city FROM CityLocations WHERE state = 'WA'", base.Add(2*time.Hour))
	makeRecord(t, store, "alice", "SELECT city FROM CityLocations WHERE pop > 10000", base.Add(2*time.Hour+time.Minute))

	sessions := Detect(store.Snapshot().Records(admin))
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(sessions))
	}
	if len(sessions[0].Queries) != 2 || len(sessions[1].Queries) != 2 {
		t.Errorf("session sizes = %d and %d, want 2 and 2", len(sessions[0].Queries), len(sessions[1].Queries))
	}
}

func TestDetectSplitsOnTopicChangeAfterSoftGap(t *testing.T) {
	store := storage.NewStore()
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	makeRecord(t, store, "alice", "SELECT * FROM WaterTemp WHERE temp < 18", base)
	// 10 minutes later (beyond the 5-minute soft gap) with a completely
	// different topic: new session.
	makeRecord(t, store, "alice", "SELECT ra, dec FROM Stars WHERE magnitude < 6", base.Add(10*time.Minute))

	sessions := Detect(store.Snapshot().Records(admin))
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(sessions))
	}
}

func TestDetectKeepsSimilarQueryAcrossSoftGap(t *testing.T) {
	store := storage.NewStore()
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	makeRecord(t, store, "alice", "SELECT * FROM WaterTemp WHERE temp < 18", base)
	// 10 minutes later but clearly the same exploration: stays in session.
	makeRecord(t, store, "alice", "SELECT * FROM WaterTemp WHERE temp < 16", base.Add(10*time.Minute))

	sessions := Detect(store.Snapshot().Records(admin))
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(sessions))
	}
}

func TestDetectSeparatesUsers(t *testing.T) {
	store := storage.NewStore()
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	makeRecord(t, store, "alice", "SELECT * FROM WaterTemp WHERE temp < 18", base)
	makeRecord(t, store, "bob", "SELECT * FROM WaterTemp WHERE temp < 17", base.Add(time.Minute))
	makeRecord(t, store, "alice", "SELECT * FROM WaterTemp WHERE temp < 16", base.Add(2*time.Minute))

	sessions := Detect(store.Snapshot().Records(admin))
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d, want 2 (one per user)", len(sessions))
	}
	for _, s := range sessions {
		for _, q := range s.Queries {
			if q.User != s.User {
				t.Errorf("session %d mixes users", s.ID)
			}
		}
	}
}

func TestEdgeLabelsMatchFigure2(t *testing.T) {
	store := storage.NewStore()
	base := time.Date(2009, 1, 5, 14, 30, 0, 0, time.UTC)
	figure2Trace(t, store, "nodira", base)
	sessions := Detect(store.Snapshot().Records(admin))
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(sessions))
	}
	edges := sessions[0].Edges
	// Edge 1: WaterSalinity added.
	if !strings.Contains(edges[0].Diff, "+table WaterSalinity") {
		t.Errorf("edge 0 diff = %q, want +table WaterSalinity", edges[0].Diff)
	}
	// Edges 2 and 3: constant changes on temp.
	for _, i := range []int{1, 2} {
		if !strings.Contains(edges[i].Diff, "~const") {
			t.Errorf("edge %d diff = %q, want a constant change", i, edges[i].Diff)
		}
	}
	// Edge 4: CityLocations table plus first location predicate added.
	if !strings.Contains(edges[3].Diff, "+table CityLocations") || !strings.Contains(edges[3].Diff, "+pred") {
		t.Errorf("edge 3 diff = %q", edges[3].Diff)
	}
	// Edge 5: second location predicate added.
	if !strings.Contains(edges[4].Diff, "loc_y") {
		t.Errorf("edge 4 diff = %q, want loc_y predicate", edges[4].Diff)
	}
	// All modification edges.
	for i, e := range edges {
		if e.Type != EdgeModification {
			t.Errorf("edge %d type = %v, want modification", i, e.Type)
		}
	}
}

func TestRenderFigure2(t *testing.T) {
	store := storage.NewStore()
	base := time.Date(2009, 1, 5, 14, 30, 0, 0, time.UTC)
	figure2Trace(t, store, "nodira", base)
	sessions := Detect(store.Snapshot().Records(admin))
	out := Render(&sessions[0])
	for _, want := range []string{
		"Session 1", "nodira", "6 queries",
		"+table WaterSalinity", "~const", "WaterTemp",
		"final query:", "loc_y",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	// One node line per query.
	if n := strings.Count(out, "(q"); n != 6 {
		t.Errorf("rendered nodes = %d, want 6", n)
	}
}

func TestRenderEmptySession(t *testing.T) {
	out := Render(&Session{ID: 3, User: "x"})
	if !strings.Contains(out, "Session 3") {
		t.Errorf("empty session rendering = %q", out)
	}
}

// TestSummarize: a session's listing entry counts its queries and names the
// tables they reference, sorted.
func TestSummarize(t *testing.T) {
	store := storage.NewStore()
	live := AttachLive(store)
	base := time.Date(2009, 1, 5, 14, 30, 0, 0, time.UTC)
	figure2Trace(t, store, "nodira", base)
	sums := live.Summaries(admin, 0, 0)
	if len(sums) != 1 {
		t.Fatalf("summaries = %+v, want one session", sums)
	}
	if sum := sums[0]; sum.QueryCount != 6 || sum.User != "nodira" {
		t.Errorf("summary = %+v", sum)
	}
	want := []string{"CityLocations", "WaterSalinity", "WaterTemp"}
	if strings.Join(sums[0].Tables, ",") != strings.Join(want, ",") {
		t.Errorf("summary tables = %v, want %v", sums[0].Tables, want)
	}
}

func TestFeatureSimilarity(t *testing.T) {
	store := storage.NewStore()
	base := time.Now()
	a := makeRecord(t, store, "u", "SELECT * FROM WaterTemp WHERE temp < 18", base)
	b := makeRecord(t, store, "u", "SELECT * FROM WaterTemp WHERE temp < 22", base)
	c := makeRecord(t, store, "u", "SELECT ra FROM Stars", base)
	if sim := FeatureSimilarity(a, b); sim != 1.0 {
		t.Errorf("similarity of template-equal queries = %v, want 1.0", sim)
	}
	if sim := FeatureSimilarity(a, c); sim != 0.0 {
		t.Errorf("similarity of unrelated queries = %v, want 0.0", sim)
	}
	empty := &storage.QueryRecord{QueryShape: &storage.QueryShape{}}
	if sim := FeatureSimilarity(empty, empty); sim != 1.0 {
		t.Errorf("similarity of two empty feature sets = %v, want 1.0", sim)
	}
	if sim := FeatureSimilarity(empty, a); sim != 0.0 {
		t.Errorf("similarity of empty vs non-empty = %v, want 0.0", sim)
	}
}

// TestDetectNamesSessionsByLowestQueryID pins the ID rule batch detection
// shares with the live detector: a session is named by the lowest query ID it
// holds, not by its chronologically first query (bob's 3, a late arrival),
// and sessions come in ascending ID order whatever their users' names.
func TestDetectNamesSessionsByLowestQueryID(t *testing.T) {
	store := storage.NewStore()
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	makeRecord(t, store, "zoe", "SELECT * FROM WaterTemp", base.Add(time.Hour))      // 1
	makeRecord(t, store, "bob", "SELECT * FROM WaterTemp", base.Add(time.Hour))      // 2
	makeRecord(t, store, "bob", "SELECT * FROM WaterTemp", base.Add(59*time.Minute)) // 3, late: in front of 2
	makeRecord(t, store, "bob", "SELECT * FROM WaterTemp", base)                     // 4, an hour before 3
	var got []string
	for _, s := range Detect(store.Snapshot().Records(admin)) {
		var ids []string
		for _, q := range s.Queries {
			ids = append(ids, fmt.Sprint(q.ID))
		}
		got = append(got, fmt.Sprintf("%d:%s[%s]", s.ID, s.User, strings.Join(ids, " ")))
	}
	if want := "1:zoe[1] 2:bob[3 2] 4:bob[4]"; strings.Join(got, " ") != want {
		t.Errorf("sessions = %q, want %q", strings.Join(got, " "), want)
	}
}
