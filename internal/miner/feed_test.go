package miner

import (
	"testing"

	"repro/internal/storage"
)

func feedRecord(t *testing.T, text string) *storage.QueryRecord {
	t.Helper()
	rec, err := storage.NewRecordFromSQL(text)
	if err != nil {
		t.Fatalf("NewRecordFromSQL: %v", err)
	}
	rec.User = "alice"
	return rec
}

// TestFeedFollowsBus verifies the incremental feed is seeded from existing
// contents at attach time, follows live submissions through the mutation
// bus, stops after unsubscribe, and rebuilds on RestoreState.
func TestFeedFollowsBus(t *testing.T) {
	store := storage.NewStore()
	mustPut(t, store, feedRecord(t, "SELECT temp FROM WaterTemp"))

	feed := NewFeed(DefaultAssocConfig(), 10)
	cancel := feed.Attach(store)
	if got := feed.NumTransactions(); got != 1 {
		t.Fatalf("seeded transactions = %d, want 1", got)
	}

	for i := 0; i < 5; i++ {
		mustPut(t, store, feedRecord(t, "SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x"))
	}
	if got := feed.NumTransactions(); got != 6 {
		t.Fatalf("transactions after puts = %d, want 6", got)
	}
	if rules := feed.Rules(); len(rules) == 0 {
		t.Error("feed derived no rules from co-occurring tables")
	}

	// RestoreState rebuilds the feed from the restored contents.
	st := store.State()
	store2 := storage.NewStore()
	feed2 := NewFeed(DefaultAssocConfig(), 10)
	feed2.Attach(store2)
	store2.RestoreStateWithCheckpoints(st, nil)
	if got := feed2.NumTransactions(); got != 6 {
		t.Fatalf("transactions after restore = %d, want 6", got)
	}

	cancel()
	mustPut(t, store, feedRecord(t, "SELECT city FROM CityLocations"))
	if got := feed.NumTransactions(); got != 6 {
		t.Errorf("unsubscribed feed kept counting: %d", got)
	}
}

// TestFeedRetire verifies that a retired feed stops maintaining itemset
// counts (its rules are never read once a full mining pass has run) while
// its transaction counter — the part the stats surface reads — keeps
// advancing, both on the live path and through a Reset rebuild.
func TestFeedRetire(t *testing.T) {
	store := storage.NewStore()
	feed := NewFeed(DefaultAssocConfig(), 10)
	feed.Attach(store)

	for i := 0; i < 4; i++ {
		mustPut(t, store, feedRecord(t, "SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x"))
	}
	feed.Retire()

	feed.mu.Lock()
	countsBefore := len(feed.inc.counts)
	feed.mu.Unlock()

	mustPut(t, store, feedRecord(t, "SELECT Stars.name, Observations.star FROM Stars, Observations WHERE Stars.id = Observations.star"))
	if got := feed.NumTransactions(); got != 5 {
		t.Fatalf("retired feed transactions = %d, want 5", got)
	}
	feed.mu.Lock()
	countsAfter := len(feed.inc.counts)
	feed.mu.Unlock()
	if countsAfter != countsBefore {
		t.Errorf("retired feed kept itemset counting: %d counts before, %d after", countsBefore, countsAfter)
	}

	// A Reset rebuild of a retired feed recounts transactions only.
	store2 := storage.NewStore()
	feed2 := NewFeed(DefaultAssocConfig(), 10)
	feed2.Attach(store2)
	feed2.Retire()
	store2.RestoreStateWithCheckpoints(store.State(), nil)
	if got := feed2.NumTransactions(); got != 5 {
		t.Fatalf("retired feed transactions after restore = %d, want 5", got)
	}
	feed2.mu.Lock()
	rebuiltCounts := len(feed2.inc.counts)
	feed2.mu.Unlock()
	if rebuiltCounts != 0 {
		t.Errorf("retired feed rebuilt itemset counts: %d", rebuiltCounts)
	}
}

// TestFeedRulesCached verifies Rules() reuses its cached derivation while no
// new transactions arrive and re-derives once one does.
func TestFeedRulesCached(t *testing.T) {
	store := storage.NewStore()
	feed := NewFeed(DefaultAssocConfig(), 10)
	feed.Attach(store)
	for i := 0; i < 5; i++ {
		mustPut(t, store, feedRecord(t, "SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x"))
	}

	first := feed.Rules()
	if len(first) == 0 {
		t.Fatal("feed derived no rules from co-occurring tables")
	}
	feed.mu.Lock()
	valid, at := feed.rulesValid, feed.rulesAt
	feed.mu.Unlock()
	if !valid || at != 5 {
		t.Fatalf("rule cache not installed: valid=%v at=%d", valid, at)
	}

	mustPut(t, store, feedRecord(t, "SELECT city FROM CityLocations"))
	feed.mu.Lock()
	stale := feed.rulesAt != feed.inc.NumTransactions()
	feed.mu.Unlock()
	if !stale {
		t.Error("rule cache not invalidated by a new transaction")
	}
	if again := feed.Rules(); len(again) == 0 {
		t.Error("re-derived rules are empty")
	}
}
