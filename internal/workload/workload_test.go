package workload

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/profiler"
	"repro/internal/session"
	"repro/internal/sql"
	"repro/internal/storage"
)

func TestPopulateCreatesSchemaAndData(t *testing.T) {
	eng := engine.New()
	if err := Populate(eng, 500, 1); err != nil {
		t.Fatalf("Populate: %v", err)
	}
	tables := eng.Catalog().TableNames()
	if len(tables) != 6 {
		t.Fatalf("tables = %v, want 6", tables)
	}
	for table, wantCols := range map[string][]string{
		"WaterTemp":     {"id", "lake", "loc_x", "loc_y", "temp", "measured_day"},
		"WaterSalinity": {"id", "lake", "loc_x", "loc_y", "salinity", "depth"},
		"CityLocations": {"city", "state", "loc_x", "loc_y", "pop"},
		"Sensors":       {"sensor_id", "lake", "kind", "installed_day", "battery"},
		"Stars":         {"star_id", "name", "ra", "dec", "magnitude"},
		"Observations":  {"obs_id", "star_id", "observed_day", "flux", "band"},
	} {
		schema, err := eng.Catalog().SchemaOf(table)
		if err != nil {
			t.Fatalf("SchemaOf(%s): %v", table, err)
		}
		var got []string
		for _, c := range schema.Columns {
			got = append(got, c.Name)
		}
		if !slices.Equal(got, wantCols) {
			t.Errorf("%s columns = %v, want %v", table, got, wantCols)
		}
	}
	n, err := eng.Catalog().RowCount("WaterTemp")
	if err != nil || n != 500 {
		t.Errorf("WaterTemp rows = %d (%v), want 500", n, err)
	}
	// The data is queryable: the paper's example query runs.
	res, err := eng.Execute("SELECT WaterTemp.lake, WaterTemp.temp, WaterSalinity.salinity FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND WaterTemp.temp < 18")
	if err != nil {
		t.Fatalf("example query: %v", err)
	}
	if res.Cardinality() == 0 {
		t.Errorf("example query returned no rows; data generation is degenerate")
	}
}

func TestPopulateDeterministic(t *testing.T) {
	engA := engine.New()
	engB := engine.New()
	if err := Populate(engA, 100, 7); err != nil {
		t.Fatal(err)
	}
	if err := Populate(engB, 100, 7); err != nil {
		t.Fatal(err)
	}
	resA := engA.MustExecute("SELECT SUM(temp) FROM WaterTemp")
	resB := engB.MustExecute("SELECT SUM(temp) FROM WaterTemp")
	if resA.Rows[0][0].Float != resB.Rows[0][0].Float {
		t.Errorf("same seed should give identical data")
	}
}

func TestGenerateTraceShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 6
	cfg.SessionsPerUser = 4
	trace := Generate(cfg)
	if len(trace.Users) != 6 {
		t.Errorf("users = %d", len(trace.Users))
	}
	if trace.Sessions != 24 {
		t.Errorf("sessions = %d, want 24", trace.Sessions)
	}
	if len(trace.Queries) < 24*cfg.MinQueriesPerSession {
		t.Errorf("queries = %d, too few", len(trace.Queries))
	}
	// Every query parses.
	for _, q := range trace.Queries {
		if _, err := sql.Parse(q.SQL); err != nil {
			t.Fatalf("generated query does not parse: %q: %v", q.SQL, err)
		}
	}
	// Timestamps are non-decreasing per user, and session IDs are grouped.
	perUser := map[string]time.Time{}
	for _, q := range trace.Queries {
		if last, ok := perUser[q.User]; ok && q.IssuedAt.Before(last) {
			t.Fatalf("timestamps go backwards for %s", q.User)
		}
		perUser[q.User] = q.IssuedAt
		if q.SessionID <= 0 || q.Topic == "" {
			t.Fatalf("query missing ground truth: %+v", q)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 3
	cfg.SessionsPerUser = 2
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.Queries) != len(b.Queries) {
		t.Fatalf("trace lengths differ")
	}
	for i := range a.Queries {
		if a.Queries[i].SQL != b.Queries[i].SQL || !a.Queries[i].IssuedAt.Equal(b.Queries[i].IssuedAt) {
			t.Fatalf("traces differ at %d", i)
		}
	}
}

func TestTopicsMatchGroups(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Users = 9
	cfg.SessionsPerUser = 3
	trace := Generate(cfg)
	for _, q := range trace.Queries {
		switch q.Group {
		case "limnology":
			if strings.Contains(q.SQL, "Stars") || strings.Contains(q.SQL, "Observations") {
				t.Fatalf("limnology user issued astronomy query: %q", q.SQL)
			}
		case "astro":
			if strings.Contains(q.SQL, "WaterTemp") || strings.Contains(q.SQL, "CityLocations") {
				t.Fatalf("astro user issued limnology query: %q", q.SQL)
			}
		default:
			t.Fatalf("unknown group %q", q.Group)
		}
	}
}

func TestReplayThroughProfiler(t *testing.T) {
	eng := engine.New()
	if err := Populate(eng, 200, 1); err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore()
	prof := profiler.New(eng, store, profiler.DefaultConfig())

	cfg := DefaultConfig()
	cfg.Users = 4
	cfg.SessionsPerUser = 3
	trace := Generate(cfg)
	failures, err := Replay(trace, prof)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if failures != 0 {
		t.Errorf("execution failures = %d, want 0 (every generated query must run)", failures)
	}
	if store.Count() != len(trace.Queries) {
		t.Errorf("store count = %d, want %d", store.Count(), len(trace.Queries))
	}
	// Runtime stats and samples recorded.
	admin := storage.Principal{Admin: true}
	withStats := 0
	for _, rec := range store.Snapshot().Records(admin) {
		if rec.Stats.ExecTime > 0 {
			withStats++
		}
	}
	if withStats != store.Count() {
		t.Errorf("queries with stats = %d, want all %d", withStats, store.Count())
	}
}

// TestSessionDetectionRecoversGroundTruth is the E2 correctness check: the
// detector's segmentation over the synthetic trace must closely match the
// generator's ground-truth sessions.
func TestSessionDetectionRecoversGroundTruth(t *testing.T) {
	eng := engine.New()
	if err := Populate(eng, 100, 1); err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore()
	prof := profiler.New(eng, store, profiler.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Users = 6
	cfg.SessionsPerUser = 5
	trace := Generate(cfg)
	if _, err := Replay(trace, prof); err != nil {
		t.Fatal(err)
	}
	detected := session.Detect(store.Snapshot().Records(storage.Principal{Admin: true}))
	// The detector may split a ground-truth session when consecutive template
	// steps look dissimilar, but it must be close: within 25% of the truth,
	// and never fewer sessions than the truth (gaps are unambiguous).
	if len(detected) < trace.Sessions {
		t.Errorf("detected %d sessions, ground truth %d (should never merge across the 2h gap)", len(detected), trace.Sessions)
	}
	if float64(len(detected)) > 1.25*float64(trace.Sessions) {
		t.Errorf("detected %d sessions, ground truth %d (over-segmentation beyond 25%%)", len(detected), trace.Sessions)
	}
	// No detected session spans a ground-truth boundary: check via boundary
	// precision — for every detected session, all queries share one
	// ground-truth session ID.
	truthByKey := map[string]int{}
	for _, q := range trace.Queries {
		truthByKey[q.User+"|"+q.SQL+"|"+q.IssuedAt.String()] = q.SessionID
	}
	for _, s := range detected {
		seen := map[int]bool{}
		for _, rec := range s.Queries {
			key := rec.User + "|" + rec.Text + "|" + rec.IssuedAt.String()
			if id, ok := truthByKey[key]; ok {
				seen[id] = true
			}
		}
		if len(seen) > 1 {
			t.Errorf("detected session %d mixes %d ground-truth sessions", s.ID, len(seen))
		}
	}
}

// TestUserNameMatchesSprintf: UserName prints what fmt's "user%07d" prints.
func TestUserNameMatchesSprintf(t *testing.T) {
	idxs := []int{9_999_999, 10_000_000, 123_456_789, -1, -123_456_789}
	for i := 0; i <= 100_000; i += 97 {
		idxs = append(idxs, i)
	}
	for _, i := range idxs {
		if got, want := UserName(i), fmt.Sprintf("user%07d", i); got != want {
			t.Errorf("UserName(%d) = %q, want %q", i, got, want)
		}
	}
}
