package session

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/telemetry"
)

// The live detector's layer benches. Both claim the same thing: the cost of
// one operation does not depend on how long the log is. Each runs at 10^3 and
// 10^5 records and the CI gate holds every sub-benchmark to its baseline, so
// the two sizes stay within 2x of each other.

var benchSizes = []struct {
	name string
	n    int
}{{"1e3", 1_000}, {"1e5", 100_000}}

// benchVariants are a few parsed records to clone: similar enough that a
// soft gap never cuts between them.
func benchVariants(b *testing.B) []*storage.QueryRecord {
	b.Helper()
	var out []*storage.QueryRecord
	for i := 0; i < 8; i++ {
		rec, err := storage.NewRecordFromSQL(fmt.Sprintf("SELECT WaterTemp.lake, WaterTemp.temp FROM WaterTemp WHERE WaterTemp.temp < %d", i))
		if err != nil {
			b.Fatal(err)
		}
		rec.User, rec.Group, rec.Visibility = "app", "limnology", storage.VisibilityGroup
		out = append(out, rec)
	}
	return out
}

// applyStream is one user's stream for BenchmarkLiveApply: sessions of 50
// queries a microsecond apart, two hours between sessions, the last one open
// for the benchmark to write into.
type applyStream struct {
	live     *Live
	variants []*storage.QueryRecord
	recs     []*storage.QueryRecord
	open     time.Time // start of the last session
	nextID   storage.QueryID
}

func (s *applyStream) record(at time.Time) *storage.QueryRecord {
	s.nextID++
	rec := *s.variants[int(s.nextID)%len(s.variants)]
	rec.ID, rec.IssuedAt = s.nextID, at
	return &rec
}

func (s *applyStream) put(rec *storage.QueryRecord) {
	s.live.mu.Lock()
	s.live.insertLocked(rec)
	s.live.mu.Unlock()
}

func (s *applyStream) delete(rec *storage.QueryRecord) {
	s.live.mu.Lock()
	s.live.removeLocked(rec)
	s.live.mu.Unlock()
}

func newApplyStream(b *testing.B, n int) *applyStream {
	s := &applyStream{live: AttachLive(storage.NewStore()), variants: benchVariants(b)}
	base := time.Date(2026, 1, 5, 9, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		s.open = base.Add(time.Duration(i/50) * 2 * time.Hour)
		rec := s.record(s.open.Add(time.Duration(i%50) * time.Microsecond))
		s.recs = append(s.recs, rec)
		s.put(rec)
	}
	if got := s.live.Count(); got != (n+49)/50 {
		b.Fatalf("%d sessions over %d records, want %d", got, n, (n+49)/50)
	}
	return s
}

// BenchmarkLiveApply is the detector's write side, one edit per op, with the
// store and the bus out of the way: append lands at the tail; late/1 and
// late/32 land 1 and 32 records behind it, which is what a second connection
// of the same user, or a batch stamped before its commit, produces; delete
// removes a record and puts it back where it was (a delete and an
// out-of-order insert per op, so the stream keeps its size), picking at
// random among the stream's latest 900: the same working set at both sizes,
// found through searches a hundred times wider.
// The detector's instruments are on, as a server runs it. boundary/op is the
// number of boundary evaluations per op (cqms_sessions_boundary_evaluations_total):
// a count, and the same at both sizes.
func BenchmarkLiveApply(b *testing.B) {
	for _, size := range benchSizes {
		n := size.n
		run := func(name string, behind int, op func(s *applyStream, i int)) {
			b.Run(name+"/"+size.name+"/instrumented", func(b *testing.B) {
				s := newApplyStream(b, n)
				reg := telemetry.NewRegistry()
				s.live.EnableMetrics(reg)
				evaluations := reg.Counter("cqms_sessions_boundary_evaluations_total", "")
				// The records every op lands behind: four minutes on, inside
				// the soft gap of everything the benchmark writes.
				for i := 0; i < behind; i++ {
					s.put(s.record(s.open.Add(4*time.Minute + time.Duration(i)*time.Microsecond)))
				}
				cuts := evaluations.Value()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op(s, i)
				}
				b.StopTimer()
				b.ReportMetric(float64(evaluations.Value()-cuts)/float64(b.N), "boundary/op")
				if got := s.live.Count(); got != (n+49)/50 {
					b.Fatalf("%d sessions after the run, want %d", got, (n+49)/50)
				}
			})
		}
		write := func(s *applyStream, i int) {
			s.put(s.record(s.open.Add(time.Millisecond + time.Duration(i)*time.Microsecond)))
		}
		run("append", 0, write)
		run("late/1", 1, write)
		run("late/32", 32, write)
		run("delete", 0, func(s *applyStream, i int) {
			rec := s.recs[len(s.recs)-1-(i*7919)%900]
			s.delete(rec)
			s.put(rec)
		})
	}
}

// BenchmarkLiveSummaries is one page of GET /v1/sessions — 50 summaries
// after a cursor that moves through the listing — for a reader who sees the
// group-visible sessions of 40 users and not the private ones in between.
func BenchmarkLiveSummaries(b *testing.B) {
	for _, size := range benchSizes {
		n := size.n
		b.Run(size.name, func(b *testing.B) {
			store := storage.NewStore()
			live := AttachLive(store)
			variants := benchVariants(b)
			base := time.Date(2026, 1, 5, 9, 0, 0, 0, time.UTC)
			// Sessions of ten queries, every seventh of them private.
			for i := 0; i < n; i++ {
				rec := variants[i%len(variants)].Clone()
				rec.User = fmt.Sprintf("user%02d", (i/10)%40)
				if (i/10)%7 == 0 {
					rec.Visibility = storage.VisibilityPrivate
				}
				rec.IssuedAt = base.Add(time.Duration(i/10)*time.Hour + time.Duration(i%10)*time.Second)
				if _, err := store.Put(rec); err != nil {
					b.Fatal(err)
				}
			}
			sessions := live.Count()
			if sessions != n/10 {
				b.Fatalf("%d sessions, want %d", sessions, n/10)
			}
			reader := storage.Principal{User: "reader", Groups: []string{"hydrology", "limnology"}}
			// As in BenchmarkStatsReadAt1MUsers: keep GC assists for the
			// resident log, a process-wide cost, out of the page's time.
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(1000))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				after := int64((i * 131) % (sessions - 60))
				if page := live.Summaries(reader, after, 50); len(page) != 50 {
					b.Fatalf("page after %d has %d sessions", after, len(page))
				}
			}
		})
	}
}

// graphTexts are a session's worth of edits: projections narrowed and
// widened, constants changed, predicates added and dropped, a join in, an
// aggregate with grouping, a non-equi join.
var graphTexts = []string{
	"SELECT * FROM WaterTemp WHERE temp < 22",
	"SELECT lake, temp FROM WaterTemp WHERE temp < 18",
	"SELECT lake FROM WaterTemp WHERE temp < 18 AND lake = 'Lake Union'",
	"SELECT WaterTemp.lake, WaterSalinity.salinity FROM WaterTemp, WaterSalinity WHERE WaterTemp.lake = WaterSalinity.lake AND WaterTemp.temp < 12",
	"SELECT T.lake, S.salinity FROM WaterSalinity S JOIN WaterTemp T ON T.loc_x = S.loc_x WHERE S.salinity > 2",
	"SELECT lake, AVG(temp) FROM WaterTemp WHERE temp BETWEEN 3 AND 12 GROUP BY lake",
	"SELECT * FROM WaterTemp T, WaterSalinity S WHERE T.temp > S.salinity",
	"SELECT WaterTemp.lake FROM WaterTemp WHERE WaterTemp.temp < 15 AND WaterTemp.lake IN ('Lake Union', 'Green Lake')",
}

// BenchmarkSessionGraph is GET /v1/sessions/{id}/graph for one session of 50
// queries cycling through graphTexts: the copy of the window, one diff of
// each consecutive pair's feature rows (sql.ComputeDiff) to label its edge,
// and the Figure 2 rendering.
func BenchmarkSessionGraph(b *testing.B) {
	const queries = 50
	store := storage.NewStore()
	live := AttachLive(store)
	base := time.Date(2026, 1, 5, 9, 0, 0, 0, time.UTC)
	var id storage.QueryID
	for i := 0; i < queries; i++ {
		rec, err := storage.NewRecordFromSQL(graphTexts[i%len(graphTexts)])
		if err != nil {
			b.Fatal(err)
		}
		rec.User, rec.Visibility, rec.IssuedAt = "app", storage.VisibilityPublic, base.Add(time.Duration(i)*20*time.Second)
		if id, err = store.Put(rec); err != nil {
			b.Fatal(err)
		}
	}
	admin := storage.Principal{Admin: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, ok, _ := live.Get(admin, int64(id)-queries+1)
		if !ok || len(sess.Edges) != queries-1 || len(Render(&sess)) == 0 {
			b.Fatalf("session of %d queries, %d edges", len(sess.Queries), len(sess.Edges))
		}
	}
}
