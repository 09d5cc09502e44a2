package storage

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sql"
	"repro/internal/telemetry"
)

// BenchmarkCommit prices the live write path of a store set up the way a
// serving process sets it up — instrumented, something in the log slot and
// one subscriber, both only counting — for the one insert body (put, and
// putbatch/N) and the one mutation body (annotate). An op is one record in
// every sub-benchmark, so ns/op is ns per record whatever the batch size.
// Every op hands the store a fresh shallow copy of a parsed record, so
// allocs/op includes that allocation. The store grows with b.N: compare runs
// at one -benchtime.
func BenchmarkCommit(b *testing.B) {
	pool := []*QueryRecord{codecRecord(b, joinHeavySQL, 0), codecRecord(b, pointLookupSQL, 0)}
	fresh := func(i int) *QueryRecord {
		rec := *pool[i%len(pool)] // the parsed features are shared: stored records are immutable
		return &rec
	}
	newStore := func() *Store {
		s := NewStore()
		s.EnableMetrics(telemetry.NewRegistry())
		logged, seen := 0, 0
		s.SetLog(&fakeLog{append: func(*Mutation) error { logged++; return nil }})
		s.Subscribe("count", func(*Mutation) { seen++ }, SubscribeOptions{})
		return s
	}

	b.Run("put", func(b *testing.B) {
		s := newStore()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Put(fresh(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, size := range []int{32, 256} {
		b.Run(fmt.Sprintf("putbatch/%d", size), func(b *testing.B) {
			s := newStore()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				batch := make([]*QueryRecord, min(size, b.N-i))
				for j := range batch {
					batch[j] = fresh(i + j)
				}
				if _, errs := s.PutBatch(batch); errs != nil {
					b.Fatal(errs)
				}
			}
		})
	}
	b.Run("annotate", func(b *testing.B) {
		// Every record is annotated b.N/4096 times; the copy-on-write append
		// of a record's few earlier annotations is part of the op.
		s := newStore()
		ids := make([]QueryID, 4096)
		for i := range ids {
			ids[i] = mustPut(b, s, fresh(i))
		}
		admin := Principal{Admin: true}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Annotate(ids[i%len(ids)], admin, Annotation{Author: "bench", Text: "note"}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPutRepeatedText stores a log of 10^5 records, put in batches of
// 256 the way a preload or a restore hands them over, and reports what the
// store keeps per record: B/record is the live heap after a collection,
// ns/record the put time. 54-texts repeats the 54 distinct statements of the
// capture workload, so the records share their shapes; distinct gives every
// record a text of its own, the case interning cannot help. Building the
// records is not timed. One op is one whole log: run it with -benchtime 1x.
func BenchmarkPutRepeatedText(b *testing.B) {
	const records, chunk = 100_000, 256
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	record := func(i, texts int) *QueryRecord {
		rec, err := NewRecordFromSQL(fmt.Sprintf("SELECT lake, temp FROM WaterTemp WHERE id = %d", i%texts))
		if err != nil {
			b.Fatal(err)
		}
		rec.User, rec.Group, rec.Visibility = fmt.Sprintf("user%d", i%50), "limnology", VisibilityGroup
		rec.IssuedAt = at.Add(time.Duration(i) * time.Second)
		rec.Stats = RuntimeStats{ExecTime: time.Millisecond, ResultRows: 1, ResultColumns: 2, ExecutedAt: rec.IssuedAt}
		return rec
	}
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, tc := range []struct {
		name  string
		texts int
	}{{"54-texts", 54}, {"distinct", records}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var kept int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				before := liveHeap()
				s := NewStore()
				for n := 0; n < records; n += chunk {
					batch := make([]*QueryRecord, min(chunk, records-n))
					for j := range batch {
						batch[j] = record(n+j, tc.texts)
					}
					b.StartTimer()
					if _, errs := s.PutBatch(batch); errs != nil {
						b.Fatal(errs)
					}
					b.StopTimer()
				}
				kept += liveHeap() - before
				runtime.KeepAlive(s)
			}
			b.ReportMetric(float64(kept)/float64(b.N*records), "B/record")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
		})
	}
}

// BenchmarkShapeOf prices the front end's shape of a statement the profiler
// has just parsed (Store.ShapeOf). miss derives a new shape: the canonical
// form and template printed, both fingerprints hashed, and the Figure 1 rows
// and feature set analysed from the tree, for text no stored record has. hit
// is a repeated text, answered from the shape dictionary.
func BenchmarkShapeOf(b *testing.B) {
	const text = "SELECT T.lake, S.salinity, AVG(T.temp) FROM WaterSalinity S JOIN WaterTemp T ON T.loc_x = S.loc_x " +
		"WHERE S.salinity > 2 AND T.temp BETWEEN 3 AND 12 AND T.lake IN ('Lake Union', 'Green Lake') GROUP BY T.lake, S.salinity"
	stmt, err := sql.Parse(text)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("miss", func(b *testing.B) {
		s := NewStore()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if sh := s.ShapeOf(stmt, text); len(sh.Predicates) != 4 {
				b.Fatalf("%d predicates", len(sh.Predicates))
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		s := NewStore()
		if _, err := s.Put(&QueryRecord{QueryShape: s.ShapeOf(stmt, text), Valid: true}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sh := s.ShapeOf(stmt, text); len(sh.Predicates) != 4 {
				b.Fatalf("%d predicates", len(sh.Predicates))
			}
		}
	})
}
