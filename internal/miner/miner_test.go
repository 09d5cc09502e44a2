package miner

import (
	"reflect"
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

func populateStore(t testing.TB) *storage.Store {
	t.Helper()
	store := storage.NewStore()
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	queries := []struct {
		user string
		sql  string
	}{
		{"alice", "SELECT temp FROM WaterTemp WHERE temp < 18"},
		{"alice", "SELECT temp FROM WaterTemp WHERE temp < 22"},
		{"alice", "SELECT temp, salinity FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x"},
		{"bob", "SELECT salinity FROM WaterSalinity WHERE salinity > 2"},
		{"bob", "SELECT temp, salinity FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND temp < 18"},
		{"bob", "SELECT city FROM CityLocations WHERE state = 'WA'"},
		{"carol", "SELECT city FROM CityLocations WHERE pop > 10000"},
		{"carol", "SELECT city, state FROM CityLocations"},
	}
	for i, q := range queries {
		rec, err := storage.NewRecordFromSQL(q.sql)
		if err != nil {
			t.Fatalf("NewRecordFromSQL: %v", err)
		}
		rec.User = q.user
		rec.Visibility = storage.VisibilityPublic
		rec.IssuedAt = base.Add(time.Duration(i) * time.Minute)
		mustPut(t, store, rec)
	}
	return store
}

// TestMinerRun: a mining pass is the feed's Refresh — the rules of a full
// Apriori pass and the count of the transactions they were derived over,
// which leaves out a logged statement with no features.
func TestMinerRun(t *testing.T) {
	store := populateStore(t)
	ddl, err := storage.NewRecordFromSQL("ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature")
	if err != nil {
		t.Fatal(err)
	}
	if len(ddl.Features) != 0 {
		t.Fatalf("DDL features = %v, want none", ddl.Features)
	}
	ddl.User = "dba"
	mustPut(t, store, ddl)
	cfg := DefaultConfig()
	cfg.Assoc = AssocConfig{MinSupport: 0.1, MinConfidence: 0.3, MaxItemsetSize: 3}
	feed := NewFeed(cfg.Assoc)
	feed.Attach(store)
	res := feed.Refresh()

	if res.TransactionCount != 8 {
		t.Errorf("transactions = %d, want 8", res.TransactionCount)
	}
	if len(res.Rules) == 0 {
		t.Errorf("no rules mined")
	}
	if want := MineAssociationRules(adminTransactions(store), cfg.Assoc); !reflect.DeepEqual(res.Rules, want) {
		t.Errorf("pass rules differ from a full pass\n got: %+v\nwant: %+v", res.Rules, want)
	}
	if got := feed.Rules(); !reflect.DeepEqual(got, res.Rules) {
		t.Errorf("the feed serves other rules than its pass\n got: %+v\nwant: %+v", got, res.Rules)
	}
}

func TestMineEditPatterns(t *testing.T) {
	edges := []storage.SessionEdge{
		{From: 1, To: 2, Diff: "+pred WaterTemp.temp < 18"},
		{From: 2, To: 3, Diff: "+pred WaterTemp.temp < 22"},
		{From: 3, To: 4, Diff: "+table WaterSalinity, +pred WaterSalinity.salinity > 2"},
		{From: 4, To: 5, Diff: "+table WaterSalinity"},
		{From: 5, To: 6, Diff: "none"},
		{From: 6, To: 7, Diff: ""},
	}
	patterns := MineEditPatterns(edges, 2)
	if len(patterns) == 0 {
		t.Fatal("no patterns")
	}
	// The two "+pred WaterTemp.temp < N" edges aggregate under a masked
	// constant.
	foundPred, foundTable := false, false
	for _, p := range patterns {
		if p.Pattern == "+pred WaterTemp.temp < ?" && p.Count == 2 {
			foundPred = true
		}
		if p.Pattern == "+table WaterSalinity" && p.Count == 2 {
			foundTable = true
		}
	}
	if !foundPred {
		t.Errorf("masked predicate pattern missing: %+v", patterns)
	}
	if !foundTable {
		t.Errorf("table pattern missing: %+v", patterns)
	}
	// Patterns below the threshold are dropped.
	for _, p := range patterns {
		if p.Count < 2 {
			t.Errorf("pattern %+v below min count", p)
		}
	}
}

func TestMineEditPatternsJoinPredicatesKeepColumns(t *testing.T) {
	edges := []storage.SessionEdge{
		{From: 1, To: 2, Diff: "+pred WaterSalinity.loc_x = WaterTemp.loc_x"},
		{From: 2, To: 3, Diff: "+pred WaterSalinity.loc_x = WaterTemp.loc_x"},
	}
	patterns := MineEditPatterns(edges, 2)
	if len(patterns) != 1 {
		t.Fatalf("patterns = %+v", patterns)
	}
	if !strings.Contains(patterns[0].Pattern, "WaterTemp.loc_x") {
		t.Errorf("join predicate constant should not be masked: %q", patterns[0].Pattern)
	}
}

func TestMinerEmptyStore(t *testing.T) {
	feed := NewFeed(DefaultAssocConfig())
	feed.Attach(storage.NewStore())
	res := feed.Refresh()
	if res.TransactionCount != 0 || len(res.Rules) != 0 {
		t.Errorf("empty store mining result = %+v", res)
	}
}
