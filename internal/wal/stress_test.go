package wal

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/storage"
)

// TestConcurrentCommitOrder hammers the full durable commit path — group
// commit, pipelined appends, batch inserts — with concurrent
// Put/PutBatch/Delete callers and asserts the one invariant everything
// downstream depends on: every bus subscriber sees mutations in strict WAL
// sequence order, one total order with no gaps and no reordering. The
// subscriber deliberately shares state without its own lock; under -race
// that also proves bus fan-out is still serialized by the commit lock.
func TestConcurrentCommitOrder(t *testing.T) {
	store := storage.NewStore()
	cfg := DefaultConfig(t.TempDir())
	cfg.SyncPolicy = "always"
	mgr, _, err := Open(store, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	var last uint64
	var total int
	store.Subscribe("order", func(m *storage.Mutation) {
		seq := mgr.LastSeq() // the log appended m just before the bus fanned it out
		if seq != last+1 {
			t.Errorf("subscriber saw WAL seq %d after %d; want strict +1 order", seq, last)
		}
		last = seq
		total++
	}, storage.SubscribeOptions{})

	newRec := func(g, i int) *storage.QueryRecord {
		rec, err := storage.NewRecordFromSQL(
			fmt.Sprintf("SELECT temp FROM WaterTemp WHERE temp < %d", g*10000+i))
		if err != nil {
			panic(err)
		}
		rec.User = fmt.Sprintf("user-%d", g)
		return rec
	}

	const (
		putters   = 3
		putsEach  = 40
		batchers  = 2
		batches   = 8
		batchSize = 10
		deleters  = 2
		delsEach  = 20
	)
	var wg sync.WaitGroup
	for g := 0; g < putters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < putsEach; i++ {
				mustPut(t, store, newRec(g, i))
			}
		}(g)
	}
	for g := 0; g < batchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				recs := make([]*storage.QueryRecord, batchSize)
				for i := range recs {
					recs[i] = newRec(100+g, b*batchSize+i)
				}
				mustPutBatch(t, store, recs)
			}
		}(g)
	}
	for g := 0; g < deleters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := storage.Principal{User: fmt.Sprintf("user-%d", 200+g)}
			for i := 0; i < delsEach; i++ {
				rec := newRec(200+g, i)
				id := mustPut(t, store, rec)
				if err := store.Delete(id, p); err != nil {
					t.Errorf("delete %d: %v", id, err)
				}
			}
		}(g)
	}
	wg.Wait()

	wantMutations := putters*putsEach + batchers*batches*batchSize + deleters*delsEach*2
	if total != wantMutations {
		t.Errorf("subscriber saw %d mutations, want %d", total, wantMutations)
	}
	if last != uint64(wantMutations) {
		t.Errorf("last WAL seq = %d, want %d", last, wantMutations)
	}
	wantLive := putters*putsEach + batchers*batches*batchSize
	if n := store.Count(); n != wantLive {
		t.Errorf("store holds %d records, want %d", n, wantLive)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay must reproduce the same total order the subscriber saw.
	store2 := storage.NewStore()
	mgr2, rec, err := Open(store2, DefaultConfig(cfg.Dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Replayed != wantMutations {
		t.Errorf("recovery = %+v, want %d replayed mutations", rec, wantMutations)
	}
	if n := store2.Count(); n != wantLive {
		t.Errorf("recovered store holds %d records, want %d", n, wantLive)
	}
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}
}
