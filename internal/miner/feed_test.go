package miner

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/storage"
)

func feedRecord(t testing.TB, text string) *storage.QueryRecord {
	t.Helper()
	rec, err := storage.NewRecordFromSQL(text)
	if err != nil {
		t.Fatalf("NewRecordFromSQL: %v", err)
	}
	rec.User = "alice"
	return rec
}

const joinSQL = "SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x"

// TestFeedFollowsBus verifies the feed is seeded from existing contents at
// attach time, follows live submissions through the mutation bus, stops after
// unsubscribe, and rebuilds on a snapshot restore.
func TestFeedFollowsBus(t *testing.T) {
	store := storage.NewStore()
	mustPut(t, store, feedRecord(t, "SELECT temp FROM WaterTemp"))

	feed := NewFeed(DefaultAssocConfig())
	cancel := feed.Attach(store)
	if got := feed.NumTransactions(); got != 1 {
		t.Fatalf("seeded transactions = %d, want 1", got)
	}

	for i := 0; i < 5; i++ {
		mustPut(t, store, feedRecord(t, joinSQL))
	}
	if got, sets := feed.NumTransactions(), feed.NumSets(); got != 6 || sets != 2 {
		t.Fatalf("after puts: %d transactions in %d sets, want 6 in 2", got, sets)
	}
	if rules := feed.Rules(); len(rules) == 0 {
		t.Error("feed derived no rules from co-occurring tables")
	}

	// A snapshot restore rebuilds the feed from the contents.
	st := store.State()
	store2 := storage.NewStore()
	feed2 := NewFeed(DefaultAssocConfig())
	feed2.Attach(store2)
	store2.RestoreStateWithCheckpoints(st, nil)
	if got := feed2.NumTransactions(); got != 6 {
		t.Fatalf("transactions after restore = %d, want 6", got)
	}
	if got, want := feed2.Rules(), feed.Rules(); !reflect.DeepEqual(got, want) {
		t.Errorf("rebuilt rules differ\n got: %+v\nwant: %+v", got, want)
	}

	cancel()
	mustPut(t, store, feedRecord(t, "SELECT city FROM CityLocations"))
	if got := feed.NumTransactions(); got != 6 {
		t.Errorf("unsubscribed feed kept counting: %d", got)
	}
}

// TestFeedRetractsDeletesAndRepairs verifies deletions and text repairs are
// retracted: a set whose last record goes leaves the multiset, and a repair
// moves its record from the old set to the new one.
func TestFeedRetractsDeletesAndRepairs(t *testing.T) {
	store := storage.NewStore()
	feed := NewFeed(DefaultAssocConfig())
	feed.Attach(store)
	a := mustPut(t, store, feedRecord(t, "SELECT temp FROM WaterTemp"))
	b := mustPut(t, store, feedRecord(t, joinSQL))
	mustPut(t, store, feedRecord(t, joinSQL))
	if got, sets := feed.NumTransactions(), feed.NumSets(); got != 3 || sets != 2 {
		t.Fatalf("%d transactions in %d sets, want 3 in 2", got, sets)
	}

	if err := store.Delete(a, admin); err != nil {
		t.Fatal(err)
	}
	if got, sets := feed.NumTransactions(), feed.NumSets(); got != 2 || sets != 1 {
		t.Fatalf("after delete: %d transactions in %d sets, want 2 in 1", got, sets)
	}

	if err := store.ReplaceText(b, feedRecord(t, "SELECT city FROM CityLocations")); err != nil {
		t.Fatal(err)
	}
	if got, sets := feed.NumTransactions(), feed.NumSets(); got != 2 || sets != 2 {
		t.Fatalf("after repair: %d transactions in %d sets, want 2 in 2", got, sets)
	}
	if got, want := feed.Refresh().Rules, MineAssociationRules(adminTransactions(store), DefaultAssocConfig()); !reflect.DeepEqual(got, want) {
		t.Errorf("rules after retraction differ from a full pass\n got: %+v\nwant: %+v", got, want)
	}
}

// TestFeedRulesCached verifies Rules returns the last Refresh without
// re-deriving while the log changes, and that Refresh catches up.
func TestFeedRulesCached(t *testing.T) {
	store := storage.NewStore()
	feed := NewFeed(DefaultAssocConfig())
	feed.Attach(store)
	for i := 0; i < 5; i++ {
		mustPut(t, store, feedRecord(t, joinSQL))
	}

	first := feed.Rules() // no rules yet: the read derives
	if len(first) == 0 {
		t.Fatal("feed derived no rules from co-occurring tables")
	}
	for i := 0; i < 5; i++ {
		mustPut(t, store, feedRecord(t, "SELECT city, state FROM CityLocations"))
	}
	if again := feed.Rules(); !reflect.DeepEqual(again, first) {
		t.Error("a read re-derived the rules; only Refresh may")
	}
	fresh := feed.Refresh().Rules
	if reflect.DeepEqual(fresh, first) {
		t.Fatal("Refresh did not pick up the new transactions")
	}
	if got := feed.Rules(); !reflect.DeepEqual(got, fresh) {
		t.Error("Rules does not return the last Refresh")
	}
}

// TestFeedRulesAfterAnEmptyDerivation verifies a feed whose last derivation
// found no rules derives again on a read once the log changes, so a young
// log is not left without rules until the first mining pass.
func TestFeedRulesAfterAnEmptyDerivation(t *testing.T) {
	store := storage.NewStore()
	feed := NewFeed(DefaultAssocConfig())
	feed.Attach(store)
	if rules := feed.Rules(); len(rules) != 0 {
		t.Fatalf("an empty log has rules: %+v", rules)
	}
	mustPut(t, store, feedRecord(t, joinSQL))
	if rules := feed.Rules(); len(rules) == 0 {
		t.Error("the read after the first query did not derive")
	}
}

// adminTransactions returns the non-empty feature sets of every record: the
// input of the full Apriori pass the feed is held to.
func adminTransactions(store *storage.Store) [][]string {
	var tx [][]string
	store.Snapshot().Scan(admin, func(rec *storage.QueryRecord) bool {
		if len(rec.Features) > 0 {
			tx = append(tx, rec.Features)
		}
		return true
	})
	return tx
}

// TestFeedMatchesFullPassUnderRandomHistory is the feed's oracle test: over
// a random history of puts (some with no features, some unparsable), deletes
// and text repairs, the rules Refresh derives after every step are exactly
// the rules of MineAssociationRules over the store's non-empty feature sets,
// at the default thresholds and at a low support that yields many rules; and
// a feed rebuilt by a snapshot restore at any step derives the same rules.
func TestFeedMatchesFullPassUnderRandomHistory(t *testing.T) {
	texts := []string{
		"SELECT temp FROM WaterTemp",
		"SELECT temp FROM WaterTemp WHERE temp < 18",
		"SELECT lake, temp FROM WaterTemp WHERE temp > 3 AND lake = 'x'",
		joinSQL,
		joinSQL + " AND WaterTemp.temp < 12",
		"SELECT salinity FROM WaterSalinity WHERE salinity > 2",
		"SELECT city FROM CityLocations WHERE state = 'WA'",
		"SELECT city, state FROM CityLocations",
		"SELECT state, COUNT(*) FROM CityLocations GROUP BY state",
		"SELECT Stars.name FROM Stars, Observations WHERE Stars.id = Observations.star",
		"SELECT FROM WHERE", // unparsable: one parse-error feature
	}
	for _, cfg := range []AssocConfig{
		DefaultAssocConfig(),
		{MinSupport: 0.05, MinConfidence: 0.1, MaxItemsetSize: 3},
		{MinSupport: 0.02, MinConfidence: 0.2, MaxItemsetSize: 4},
	} {
		r := rand.New(rand.NewSource(7))
		store := storage.NewStore()
		feed := NewFeed(cfg)
		feed.Attach(store)
		var live []storage.QueryID
		record := func() *storage.QueryRecord {
			text := texts[r.Intn(len(texts))]
			rec, err := storage.NewRecordFromSQL(text)
			if err != nil {
				rec = storage.NewRawRecord(text, err)
			}
			rec.User = "alice"
			if r.Intn(15) == 0 {
				rec.Features = nil
			}
			return rec
		}
		for step := 0; step < 250; step++ {
			switch op := r.Intn(4); {
			case op < 2 || len(live) == 0:
				live = append(live, mustPut(t, store, record()))
			case op < 3:
				i := r.Intn(len(live))
				if err := store.Delete(live[i], admin); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
			default:
				if err := store.ReplaceText(live[r.Intn(len(live))], record()); err != nil {
					t.Fatal(err)
				}
			}
			tx := adminTransactions(store)
			want := MineAssociationRules(tx, cfg)
			if got := feed.Refresh().Rules; !reflect.DeepEqual(got, want) {
				t.Fatalf("cfg %+v step %d: feed rules differ from the full pass\n got: %+v\nwant: %+v", cfg, step, got, want)
			}
			if got := feed.NumTransactions(); got != len(tx) {
				t.Fatalf("cfg %+v step %d: %d transactions, want %d", cfg, step, got, len(tx))
			}
			if step%50 == 49 {
				restored := storage.NewStore()
				g := NewFeed(cfg)
				g.Attach(restored)
				restored.RestoreStateWithCheckpoints(store.State(), nil)
				if got := g.Rules(); !reflect.DeepEqual(got, want) {
					t.Fatalf("cfg %+v step %d: rebuilt rules differ from the full pass", cfg, step)
				}
			}
		}
	}
}

// TestFeedAddAllocatesNothingForAKnownSet pins the commit-path cost: adding a
// feature set the feed already counts allocates nothing.
func TestFeedAddAllocatesNothingForAKnownSet(t *testing.T) {
	feed := NewFeed(DefaultAssocConfig())
	features := feedRecord(t, joinSQL).Features
	feed.Add(features)
	if got := testing.AllocsPerRun(100, func() { feed.Add(features) }); got != 0 {
		t.Errorf("Add of a known set allocates %.0f objects, want 0", got)
	}
}

// TestFeedRefreshRacesCommits derives rules while another goroutine commits
// (run under -race): the last Refresh after the writer stops matches the
// full pass.
func TestFeedRefreshRacesCommits(t *testing.T) {
	store := storage.NewStore()
	feed := NewFeed(DefaultAssocConfig())
	feed.Attach(store)
	join, temp := feedRecord(t, joinSQL), feedRecord(t, "SELECT temp FROM WaterTemp WHERE temp < 18")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			rec := *join
			if i%3 == 0 {
				rec = *temp
			}
			id := mustPut(t, store, &rec)
			if i%5 == 0 {
				_ = store.Delete(id, admin)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		feed.Refresh()
		feed.Rules()
	}
	<-done
	if got, want := feed.Refresh().Rules, MineAssociationRules(adminTransactions(store), DefaultAssocConfig()); !reflect.DeepEqual(got, want) {
		t.Errorf("rules after the race differ from a full pass\n got: %+v\nwant: %+v", got, want)
	}
}

// TestFeedV2SectionTakesTheRebuildPath restores a store from a snapshot an
// older build wrote, carrying a miner-feed section (version 2, an incremental
// miner's counters, or version 3, the multiset): the bus restores nothing
// from it and rebuilds the feed from the restored records.
func TestFeedV2SectionTakesTheRebuildPath(t *testing.T) {
	store1 := storage.NewStore()
	for i := 0; i < 5; i++ {
		mustPut(t, store1, feedRecord(t, joinSQL))
	}
	for _, version := range []int{2, 3} {
		store2 := storage.NewStore()
		feed := NewFeed(DefaultAssocConfig())
		feed.Attach(store2)
		section := storage.SubscriberCheckpoint{Name: "miner-feed", Version: version, Data: []byte{1, 5, 1, 15}}
		restored, rebuilt := store2.RestoreStateWithCheckpoints(store1.State(), []storage.SubscriberCheckpoint{section})
		if len(restored) != 0 || !reflect.DeepEqual(rebuilt, []string{"miner-feed"}) {
			t.Fatalf("version %d: restored %v, rebuilt %v; want the feed rebuilt", version, restored, rebuilt)
		}
		if got, want := feed.Rules(), MineAssociationRules(adminTransactions(store2), DefaultAssocConfig()); len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("version %d: rebuilt rules differ from a full pass\n got: %+v\nwant: %+v", version, got, want)
		}
	}
}
