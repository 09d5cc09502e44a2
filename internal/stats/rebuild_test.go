package stats_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/storage"
)

// repeatedTexts is a small pool of statements a shared log repeats: joins
// written with their sides either way round, a self-join, a predicate stated
// twice, and one table under two casings, so shapes that render the same
// keys differently are all in play.
var repeatedTexts = []string{
	"SELECT temp FROM WaterTemp WHERE temp < 12",
	"SELECT WaterTemp.temp FROM watertemp WHERE WaterTemp.temp < 12",
	"SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x",
	"SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND WaterTemp.temp < 9",
	"SELECT a.temp FROM WaterTemp a, WaterTemp b WHERE a.loc_x = b.loc_x",
	"SELECT city FROM CityLocations WHERE pop > 10000 AND pop > 10000",
	"SELECT city FROM CityLocations, WaterTemp WHERE CityLocations.x < WaterTemp.loc_x",
	"SELECT COUNT(*) FROM WaterSalinity GROUP BY lake",
}

// putRepeated stores a record of one of the pooled texts for a random user at
// a random visibility.
func putRepeated(t *testing.T, rng *rand.Rand, s *storage.Store) {
	t.Helper()
	rec, err := storage.NewRecordFromSQL(repeatedTexts[rng.Intn(len(repeatedTexts))])
	if err != nil {
		t.Fatal(err)
	}
	rec.User = tiedUsers[rng.Intn(6)]
	rec.Group = "limnology"
	rec.Visibility = storage.Visibility(rng.Intn(3))
	mustPut(t, s, rec)
}

// TestRebuildMatchesPerRecordOracle: Rebuild, which counts each shape once
// with its multiplicity, leaves every bucket's exact maps — and so every
// summary seeded from them — and the key cache's record count per shape as
// applying the records one by one does, over histories of heavily repeated
// texts with visibility flips, deletes and text replacements. Every shape in
// the store is shared by several records.
func TestRebuildMatchesPerRecordOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			store := storage.NewStore()
			live := stats.AttachWithCapacity(store, 4)
			for i := 0; i < 400; i++ {
				ids := liveIDs(store)
				switch op := rng.Intn(10); {
				case op < 5 || len(ids) == 0:
					putRepeated(t, rng, store)
				case op < 7:
					if err := store.SetVisibility(ids[rng.Intn(len(ids))], admin, storage.Visibility(rng.Intn(3))); err != nil {
						t.Fatal(err)
					}
				case op < 9:
					if err := store.Delete(ids[rng.Intn(len(ids))], admin); err != nil {
						t.Fatal(err)
					}
				default:
					upd, err := storage.NewRecordFromSQL(repeatedTexts[rng.Intn(len(repeatedTexts))])
					if err != nil {
						t.Fatal(err)
					}
					if err := store.ReplaceText(ids[rng.Intn(len(ids))], upd); err != nil {
						t.Fatal(err)
					}
				}
			}
			shapes := make(map[*storage.QueryShape]bool)
			for _, rec := range store.Snapshot().Records(admin) {
				shapes[rec.QueryShape] = true
			}
			if len(shapes) > len(repeatedTexts) || store.Count() < 4*len(shapes) {
				t.Fatalf("%d records over %d shapes: the history no longer repeats its texts", store.Count(), len(shapes))
			}

			grouped, oracle := stats.NewWithCapacity(4), stats.NewWithCapacity(4)
			grouped.Rebuild(store)
			oracle.RebuildPerRecord(store)
			if got, want := stats.Counts(grouped), stats.Counts(oracle); !reflect.DeepEqual(got, want) {
				t.Fatalf("grouped rebuild diverges from the per-record oracle\n got: %+v\nwant: %+v", got, want)
			}
			assertSameListings(t, "grouped vs per-record rebuild", grouped, oracle)
			// The live tracker counted the same history mutation by mutation.
			if got, want := stats.Counts(live), stats.Counts(oracle); !reflect.DeepEqual(got, want) {
				t.Fatalf("live counters diverge from the per-record oracle\n got: %+v\nwant: %+v", got, want)
			}
			// The key cache holds an entry for exactly the shapes of the
			// counted records, and none once every record is gone.
			if got := len(stats.Counts(live).Shapes); got != len(shapes) {
				t.Fatalf("key cache holds %d shapes, the records have %d", got, len(shapes))
			}
			for _, id := range liveIDs(store) {
				if err := store.Delete(id, admin); err != nil {
					t.Fatal(err)
				}
			}
			if got := stats.Counts(live).Shapes; len(got) != 0 {
				t.Fatalf("key cache holds %d shapes after every record was deleted", len(got))
			}
		})
	}
}
