package storage

import (
	"fmt"
	"testing"

	"repro/internal/telemetry"
)

// BenchmarkCommit prices the live write path of a store set up the way a
// serving process sets it up — instrumented, something in the WAL slot and
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
		s.SetMutationHook(func(*Mutation) error { logged++; return nil })
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
