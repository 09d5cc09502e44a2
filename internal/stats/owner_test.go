package stats_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/storage"
)

// TestOwnerBucketsStayListsUntilRead: a history of writes and no read —
// puts, batches, deletes, visibility flips, text repairs and replayed puts
// over existing IDs — builds no owner bucket's counters, and building them
// afterwards (Counts settles every bucket) gives exactly the counters of the
// per-record oracle, which builds each owner bucket from its first record on.
func TestOwnerBucketsStayListsUntilRead(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			store := storage.NewStore()
			live := stats.AttachWithCapacity(store, 4)
			record := func() *storage.QueryRecord {
				rec, err := storage.NewRecordFromSQL(repeatedTexts[rng.Intn(len(repeatedTexts))])
				if err != nil {
					t.Fatal(err)
				}
				rec.User = tiedUsers[rng.Intn(6)]
				rec.Group = "limnology"
				rec.Visibility = storage.Visibility(rng.Intn(3))
				return rec
			}
			for i := 0; i < 400; i++ {
				ids := liveIDs(store)
				switch op := rng.Intn(12); {
				case op < 4 || len(ids) == 0:
					mustPut(t, store, record())
				case op < 5:
					mustPutBatch(t, store, []*storage.QueryRecord{record(), record(), record()})
				case op < 7:
					if err := store.SetVisibility(ids[rng.Intn(len(ids))], admin, storage.Visibility(rng.Intn(3))); err != nil {
						t.Fatal(err)
					}
				case op < 9:
					if err := store.Delete(ids[rng.Intn(len(ids))], admin); err != nil {
						t.Fatal(err)
					}
				case op < 10:
					if err := store.ReplaceText(ids[rng.Intn(len(ids))], record()); err != nil {
						t.Fatal(err)
					}
				default:
					// Recovery's or a follower's put over an ID the store
					// holds: the older record is retracted first.
					rec := record()
					rec.ID = ids[rng.Intn(len(ids))]
					if err := store.Apply(&storage.Mutation{Op: storage.OpPut, Record: rec}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if built, listed := stats.BuiltOwners(live); built != 0 || listed == 0 {
				t.Fatalf("after writes alone, %d owner buckets are built and %d listed; want none built", built, listed)
			}
			oracle := stats.NewWithCapacity(4)
			oracle.RebuildPerRecord(store)
			if got, want := stats.Counts(live), stats.Counts(oracle); !reflect.DeepEqual(got, want) {
				t.Fatalf("owner buckets built from their lists diverge from the per-record oracle\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// TestOwnerBucketBuiltPastListBound: an owner who writes more distinct shapes
// than an unbuilt bucket lists, and never reads, has their bucket built by
// the write that would list one shape more; repeats of a listed shape do not
// build it. A rebuild that leaves a longer list has it built by the next
// write. The counts stay exact throughout.
func TestOwnerBucketBuiltPastListBound(t *testing.T) {
	store := storage.NewStore()
	live := stats.AttachWithCapacity(store, 4)
	put := func(i int) storage.QueryID {
		rec, err := storage.NewRecordFromSQL(fmt.Sprintf("SELECT temp FROM WaterTemp WHERE temp < %d", i))
		if err != nil {
			t.Fatal(err)
		}
		rec.User = "proxy"
		rec.Visibility = storage.VisibilityGroup
		return mustPut(t, store, rec)
	}
	owners := func(what string, wantBuilt, wantListed int) {
		t.Helper()
		if built, listed := stats.BuiltOwners(live); built != wantBuilt || listed != wantListed {
			t.Fatalf("%s: %d owner buckets built and %d listed, want %d and %d", what, built, listed, wantBuilt, wantListed)
		}
	}
	exact := func(what string) {
		t.Helper()
		oracle := stats.NewWithCapacity(4)
		oracle.RebuildPerRecord(store)
		if got, want := stats.Counts(live), stats.Counts(oracle); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: counts diverge from the per-record oracle\n got: %+v\nwant: %+v", what, got, want)
		}
	}

	for i := 0; i < stats.ListedShapes; i++ {
		put(i)
	}
	first := put(0)
	owners("a full list and a repeat of a listed shape", 0, 1)
	put(stats.ListedShapes)
	owners("one shape past the bound", 1, 0)
	for i := stats.ListedShapes + 1; i < 3*stats.ListedShapes; i++ {
		put(i)
	}
	if err := store.Delete(first, admin); err != nil {
		t.Fatal(err)
	}
	owners("more writes to a built bucket", 1, 0)
	exact("built at the bound")

	live.Rebuild(store)
	owners("a rebuild", 0, 1)
	put(0)
	owners("a write to a rebuilt list past the bound", 1, 0)
	exact("built by a write after a rebuild")
	if got, want := live.QueryCount(storage.Principal{User: "proxy"}), store.Count(); got != want {
		t.Fatalf("proxy's QueryCount = %d, want %d", got, want)
	}
}
