package stats

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"repro/internal/sql"
	"repro/internal/storage"
)

// buildLoadedTracker feeds n synthetic public records with n distinct users
// (plus proportionally large predicate and fingerprint vocabularies) straight
// into a tracker's apply path, bypassing the store and the key cache (every
// record has a shape of its own) so the benchmark isolates the buckets the
// reads merge. Records are public, so they land in the all + public
// buckets — the merge shape an admin read and a user read both see.
func buildLoadedTracker(n int) *Tracker {
	t := New()
	tables := []string{"WaterTemp", "WaterSalinity", "CityLocations", "Sensors",
		"Stars", "Observations", "Lakes", "Surveys"}
	for i := 0; i < n; i++ {
		rec := &storage.QueryRecord{
			ID:   storage.QueryID(i + 1),
			User: fmt.Sprintf("user%07d", i),
			QueryShape: &storage.QueryShape{
				Fingerprint: uint64(i%(n/10+1)) + 1,
				Analysis: sql.Analysis{
					Tables: []string{tables[i%len(tables)]},
					Predicates: []sql.PredicateRow{
						{Attr: "temp", Op: "<", Const: strconv.Itoa(i % (n/5 + 1))},
					},
				},
			},
			Visibility: storage.VisibilityPublic,
		}
		k := keysOf(rec.QueryShape)
		t.all.apply(rec, &k, 1, t.capacity)
		t.specificFor(rec).apply(rec, &k, 1, t.capacity)
	}
	return t
}

// BenchmarkStatsReadAt1MUsers measures the bounded listing reads against
// trackers holding 10^3 vs 10^6 distinct users. The sub-linear claim of the
// top-K summaries is that the two sub-benchmarks stay within the same
// envelope (the reads merge at most capacity tracked keys per bucket, never
// the full maps); the CI perf gate holds each against its own baseline.
func BenchmarkStatsReadAt1MUsers(b *testing.B) {
	admin := storage.Principal{Admin: true}
	for _, n := range []int{1_000, 1_000_000} {
		b.Run(fmt.Sprintf("users=%d", n), func(b *testing.B) {
			tr := buildLoadedTracker(n)
			user := storage.Principal{User: "user0000001"}
			// Reads allocate only O(capacity) per call, but at default GOGC
			// the timed loop would also pay GC mark assists proportional to
			// the tracker's resident maps — a process-wide amortised cost,
			// not read latency. Flush the setup garbage and raise the GC
			// target for the timed window so both population sizes measure
			// the same thing; the defer restores it between rounds.
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(1000))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.UserActivity(admin)
				tr.TableCounts(admin)
				tr.TopPredicates(admin, 20)
				tr.MaxFingerprintCount(admin)
				tr.Bounds(admin)
				tr.UserActivity(user)
			}
		})
	}
}

// rebuildBenchStore fills a store with n records the way a shared log looks:
// a few hundred distinct texts, repeated, issued by users drawn from a Zipf
// distribution over the given number of them, a third of the records public.
func rebuildBenchStore(b *testing.B, n, users int) *storage.Store {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(users))
	texts := make([]*storage.QueryRecord, 300)
	for i := range texts {
		var sql string
		switch i % 3 {
		case 0:
			sql = fmt.Sprintf("SELECT WaterTemp.lake, WaterTemp.temp FROM WaterTemp WHERE WaterTemp.temp < %d", i)
		case 1:
			sql = fmt.Sprintf("SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x AND WaterSalinity.salinity > %d", i)
		default:
			sql = fmt.Sprintf("SELECT city FROM CityLocations WHERE pop > %d", i*1000)
		}
		rec, err := storage.NewRecordFromSQL(sql)
		if err != nil {
			b.Fatal(err)
		}
		texts[i] = rec
	}
	store := storage.NewStore()
	for i := 0; i < n; i++ {
		rec := texts[rng.Intn(len(texts))].Clone()
		rec.User = fmt.Sprintf("user%06d", zipf.Uint64())
		rec.Visibility = storage.VisibilityGroup
		if i%3 == 0 {
			rec.Visibility = storage.VisibilityPublic
		}
		if _, err := store.Put(rec); err != nil {
			b.Fatal(err)
		}
	}
	return store
}

// BenchmarkStatsRebuild prices Tracker.Rebuild — what a restart or a follower
// bootstrap pays for the stats counters — at 10^4 and 10^5 records.
func BenchmarkStatsRebuild(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		store := rebuildBenchStore(b, n, n/10)
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			t := New()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t.Rebuild(store)
			}
		})
	}
}

// BenchmarkStatsApply prices the live apply path under the trace's
// bus.stats_us on a tracker holding 10^4 records from ~5,000 Zipf users. With
// owner=existing and owner=new one op adds and then retracts a group-visible
// record whose shape the tracker already counts: with existing the record's
// user keeps other records, so their bucket stays; with new the user has
// none, so every op creates their bucket and prunes it again. With
// owner=spread one op adds a group-visible record for the next of 5,000
// users in turn, none of whom reads, as capture ingest does, and B/owner is
// the heap the owner buckets retain.
func BenchmarkStatsApply(b *testing.B) {
	store := rebuildBenchStore(b, 10_000, 5_000)
	var rec *storage.QueryRecord
	var shapes []*storage.QueryShape
	seen := make(map[*storage.QueryShape]bool)
	store.Snapshot().Scan(storage.Principal{Admin: true}, func(r *storage.QueryRecord) bool {
		if r.Visibility == storage.VisibilityGroup {
			if rec == nil {
				rec = r
			}
			if !seen[r.QueryShape] {
				seen[r.QueryShape] = true
				shapes = append(shapes, r.QueryShape)
			}
		}
		return true
	})
	b.Run("owner=spread", func(b *testing.B) {
		t := New()
		t.Rebuild(store)
		// One record per owner, given the op's shape before it is applied:
		// the tracker reads only its user, shape and visibility.
		owners := make([]*storage.QueryRecord, 5_000)
		for i := range owners {
			owners[i] = withUser(rec, fmt.Sprintf("writer%04d", i))
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := owners[i%len(owners)]
			r.QueryShape = shapes[(i+i/len(owners))%len(shapes)]
			t.addLocked(r)
		}
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		written := min(b.N, len(owners))
		b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(written), "B/owner")
		runtime.KeepAlive(t)
		runtime.KeepAlive(owners)
	})
	for _, owner := range []string{"existing", "new"} {
		b.Run("owner="+owner, func(b *testing.B) {
			t := New()
			t.Rebuild(store)
			user := rec.User
			if owner == "new" {
				user = "newcomer"
			}
			rec := withUser(rec, user)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.addLocked(rec)
				t.removeLocked(rec)
			}
		})
	}
}

// withUser is a copy of rec for user that shares its shape, the interned one
// the key cache counts (Clone would copy it).
func withUser(rec *storage.QueryRecord, user string) *storage.QueryRecord {
	out := *rec
	out.User = user
	return &out
}
