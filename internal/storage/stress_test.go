package storage

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentMutationStress drives the storage commit path the way the
// durable stack does — a log numbering every mutation, subscribers fanning
// out under the commit lock — from concurrent Put/PutBatch/Delete callers.
// The subscriber checks, without any locking of its own, that it sees each
// mutation right after the log appended it and in strict +1 sequence order:
// under -race this test fails if the split commit path (prepare outside the
// lock, the durability wait after unlock) ever lets two emissions overlap.
func TestConcurrentMutationStress(t *testing.T) {
	s := NewStore()
	var appended *Mutation
	log := &fakeLog{append: func(m *Mutation) error { appended = m; return nil }}
	s.SetLog(log)
	var last uint64
	s.Subscribe("order", func(m *Mutation) {
		if m != appended || log.seq != last+1 {
			t.Errorf("subscriber saw seq %d after %d (the appended mutation: %v); want the appended one in strict +1 order", log.seq, last, m == appended)
		}
		last = log.seq
	}, SubscribeOptions{})

	newRec := func(g, i int) *QueryRecord {
		rec, err := NewRecordFromSQL(
			fmt.Sprintf("SELECT temp FROM WaterTemp WHERE temp < %d", g*10000+i))
		if err != nil {
			panic(err)
		}
		rec.User = fmt.Sprintf("user-%d", g)
		return rec
	}

	const (
		putters   = 4
		putsEach  = 50
		batchers  = 2
		batches   = 5
		batchSize = 80
		deleters  = 2
		delsEach  = 25
	)
	var wg sync.WaitGroup
	for g := 0; g < putters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < putsEach; i++ {
				mustPut(t, s, newRec(g, i))
			}
		}(g)
	}
	for g := 0; g < batchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				recs := make([]*QueryRecord, batchSize)
				for i := range recs {
					recs[i] = newRec(100+g, b*batchSize+i)
				}
				mustPutBatch(t, s, recs)
			}
		}(g)
	}
	for g := 0; g < deleters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := Principal{User: fmt.Sprintf("user-%d", 200+g)}
			for i := 0; i < delsEach; i++ {
				id := mustPut(t, s, newRec(200+g, i))
				if err := s.Delete(id, p); err != nil {
					t.Errorf("delete %d: %v", id, err)
				}
			}
		}(g)
	}
	wg.Wait()

	want := uint64(putters*putsEach + batchers*batches*batchSize + deleters*delsEach*2)
	if last != want {
		t.Errorf("last seq = %d, want %d", last, want)
	}
	if live := putters*putsEach + batchers*batches*batchSize; s.Count() != live {
		t.Errorf("store holds %d records, want %d", s.Count(), live)
	}
}
