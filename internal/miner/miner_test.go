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

func TestMinerRun(t *testing.T) {
	store := populateStore(t)
	cfg := DefaultConfig()
	cfg.Assoc = AssocConfig{MinSupport: 0.1, MinConfidence: 0.3, MaxItemsetSize: 3}
	feed := NewFeed(cfg.Assoc)
	feed.Attach(store)
	res := Run(store, feed.Refresh())

	if res.TransactionCount != 8 {
		t.Errorf("transactions = %d, want 8", res.TransactionCount)
	}
	if len(res.Rules) == 0 {
		t.Errorf("no rules mined")
	}
	// The pass serves the feed's rules, which are a full Apriori pass's.
	if want := MineAssociationRules(adminTransactions(store), cfg.Assoc); !reflect.DeepEqual(res.Rules, want) {
		t.Errorf("pass rules differ from a full pass\n got: %+v\nwant: %+v", res.Rules, want)
	}
	// Popularity: CityLocations and WaterTemp referenced most.
	if len(res.TablePopularity) == 0 {
		t.Fatalf("no table popularity")
	}
	top := res.TablePopularity[0]
	if top.Count < 3 {
		t.Errorf("top table popularity = %+v", top)
	}
	if len(res.ColumnPopularity) == 0 || len(res.PredicatePopularity) == 0 {
		t.Errorf("column/predicate popularity missing")
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

func TestPopularityCountsDeduplicatePerQuery(t *testing.T) {
	store := storage.NewStore()
	// A query referencing the same table twice (self-join) counts once.
	rec, err := storage.NewRecordFromSQL("SELECT a.temp FROM WaterTemp a, WaterTemp b WHERE a.loc_x = b.loc_x")
	if err != nil {
		t.Fatal(err)
	}
	rec.User = "alice"
	rec.Visibility = storage.VisibilityPublic
	mustPut(t, store, rec)
	res := Run(store, nil)
	for _, p := range res.TablePopularity {
		if p.Item == "WaterTemp" && p.Count != 1 {
			t.Errorf("WaterTemp count = %d, want 1", p.Count)
		}
	}
}

func TestMinerEmptyStore(t *testing.T) {
	store := storage.NewStore()
	res := Run(store, nil)
	if res.TransactionCount != 0 || len(res.Rules) != 0 {
		t.Errorf("empty store mining result = %+v", res)
	}
}
