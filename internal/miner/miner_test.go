package miner

import (
	"reflect"
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
	cfg := AssocConfig{MinSupport: 0.1, MinConfidence: 0.3, MaxItemsetSize: 3}
	feed := NewFeed(cfg)
	feed.Attach(store)
	res := feed.Refresh()

	if res.TransactionCount != 8 {
		t.Errorf("transactions = %d, want 8", res.TransactionCount)
	}
	if len(res.Rules) == 0 {
		t.Errorf("no rules mined")
	}
	if want := MineAssociationRules(adminTransactions(store), cfg); !reflect.DeepEqual(res.Rules, want) {
		t.Errorf("pass rules differ from a full pass\n got: %+v\nwant: %+v", res.Rules, want)
	}
	if got := feed.Rules(); !reflect.DeepEqual(got, res.Rules) {
		t.Errorf("the feed serves other rules than its pass\n got: %+v\nwant: %+v", got, res.Rules)
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
