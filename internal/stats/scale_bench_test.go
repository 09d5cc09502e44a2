package stats

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"repro/internal/storage"
)

// buildLoadedTracker feeds n synthetic public records with n distinct users
// (plus proportionally large predicate and fingerprint vocabularies) straight
// into a tracker's apply path, bypassing the store so the benchmark isolates
// the stats layer. Records are public, so they land in the all + public
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
				Tables:      []string{tables[i%len(tables)]},
				Predicates: []storage.PredicateRow{
					{Attr: "temp", Op: "<", Const: strconv.Itoa(i % (n/5 + 1))},
				},
			},
			Visibility: storage.VisibilityPublic,
		}
		t.addLocked(rec)
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
