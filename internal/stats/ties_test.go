package stats_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// The bounded listings under ties. A summary smaller than a dimension keeps
// only some of the keys tied at its cut; which ones is decided by the rank
// order (count, then key), never by heap layout or map iteration, so two
// trackers that reach the same counts the same way list the same keys.

// tiedListings is every bounded read a principal can make, in full.
type tiedListings struct {
	Tables         []storage.TableCount
	Users          []stats.UserCount
	Predicates     []stats.ItemCount
	MaxFingerprint int
	Bounds         stats.ApproxBounds
}

func listingsOf(tr *stats.Tracker, p storage.Principal) tiedListings {
	return tiedListings{
		Tables:         tr.TableCounts(p),
		Users:          tr.UserActivity(p),
		Predicates:     tr.TopPredicates(p, 0),
		MaxFingerprint: tr.MaxFingerprintCount(p),
		Bounds:         tr.Bounds(p),
	}
}

// tiedUsers are more users than a small summary holds, each with one to three
// queries, so the user dimension ties across its cut.
var tiedUsers = func() []string {
	out := make([]string, 40)
	for i := range out {
		out[i] = fmt.Sprintf("u%02d", i)
	}
	return out
}()

// putTied stores n records, spread over tiedUsers.
func putTied(t *testing.T, rng *rand.Rand, s *storage.Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rec := genRecord(t, rng)
		rec.User = tiedUsers[rng.Intn(len(tiedUsers))]
		mustPut(t, s, rec)
	}
}

func assertSameListings(t *testing.T, what string, got, want *stats.Tracker) {
	t.Helper()
	ps := append(principalsOf(), storage.Principal{User: tiedUsers[0], Groups: []string{"limnology"}})
	for _, p := range ps {
		if g, w := listingsOf(got, p), listingsOf(want, p); !reflect.DeepEqual(g, w) {
			t.Errorf("%s, principal %+v:\n got: %+v\nwant: %+v", what, p, g, w)
		}
	}
}

// TestTiedListingsMatchAcrossRebuilds: trackers rebuilt from one store —
// shape by shape, or record by record as the oracle does — list the same
// tied keys, however often either is built.
func TestTiedListingsMatchAcrossRebuilds(t *testing.T) {
	const capacity = 8
	rng := rand.New(rand.NewSource(9))
	store := storage.NewStore()
	live := stats.AttachWithCapacity(store, capacity)
	putTied(t, rng, store, 70)
	mutateRandomly(t, rng, store, 60)
	if live.Bounds(admin).Users == 0 {
		t.Fatal("the user summary never overflowed; the history no longer ties at its cut")
	}
	rebuilt := stats.NewWithCapacity(capacity)
	rebuilt.Rebuild(store)
	for i := 0; i < 10; i++ {
		oracle := stats.NewWithCapacity(capacity)
		oracle.RebuildPerRecord(store)
		assertSameListings(t, fmt.Sprintf("per-record rebuild %d vs rebuild", i), oracle, rebuilt)
		again := stats.NewWithCapacity(capacity)
		again.Rebuild(store)
		assertSameListings(t, fmt.Sprintf("rebuild %d vs rebuild", i), again, rebuilt)
	}
}

// TestTiedListingsMatchPrimaryAfterRecovery: a primary that grew by puts
// takes a snapshot, then runs every kind of mutation; a replica recovered
// from that snapshot and the log tail — the follower's bootstrap path, which
// rebuilds the tracker from the snapshot's records — lists exactly what the
// primary lists, tied keys and bounds included. Both sides count their
// rebuilds: the primary's tracker was built once, on attach, and the
// replica's twice, on attach and from the snapshot's records.
func TestTiedListingsMatchPrimaryAfterRecovery(t *testing.T) {
	const capacity = 8
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := wal.DefaultConfig(t.TempDir())
			cfg.SyncPolicy = "off"
			primaryReg := telemetry.NewRegistry()
			store := storage.NewStore()
			store.EnableMetrics(primaryReg)
			primary := stats.AttachWithCapacity(store, capacity)
			mgr, _, err := wal.Open(store, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Puts only count up, so the primary's summaries hold the true
			// top keys, as a snapshot's reseeded ones do.
			putTied(t, rng, store, 80)
			if _, _, err := mgr.Snapshot(); err != nil {
				t.Fatal(err)
			}
			mutateRandomly(t, rng, store, 150)
			putTied(t, rng, store, 30)
			if err := mgr.Close(); err != nil {
				t.Fatal(err)
			}
			if primary.Bounds(admin).Users == 0 {
				t.Fatal("the user summary never overflowed; the history no longer ties at its cut")
			}

			reg := telemetry.NewRegistry()
			replicaStore := storage.NewStore()
			replicaStore.EnableMetrics(reg)
			replica := stats.AttachWithCapacity(replicaStore, capacity)
			mgr2, info, err := wal.Open(replicaStore, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer mgr2.Close()
			rebuilds := func(reg *telemetry.Registry) uint64 {
				return reg.HistogramVec("cqms_store_subscriber_rebuild_seconds", "", nil, "subscriber").With("stats").Count()
			}
			if info.SnapshotSeq == 0 || info.Replayed == 0 || rebuilds(primaryReg) != 1 || rebuilds(reg) != 2 {
				t.Fatalf("recovery %+v, %d primary and %d replica rebuilds: want the replica rebuilt from the snapshot, then a tail",
					info, rebuilds(primaryReg), rebuilds(reg))
			}
			assertSameListings(t, "recovered replica vs primary", replica, primary)
		})
	}
}
