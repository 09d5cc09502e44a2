package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestScanAfterResumesMidList(t *testing.T) {
	s := NewStore()
	admin := Principal{Admin: true}
	var ids []QueryID
	for i := 0; i < 10; i++ {
		ids = append(ids, putQuery(t, s, "SELECT lake FROM WaterTemp", "alice", "limnology", VisibilityPublic))
	}
	v := s.Snapshot()
	var got []QueryID
	v.ScanAfter(ids[4], admin, func(rec *QueryRecord) bool {
		got = append(got, rec.ID)
		return true
	})
	if len(got) != 5 || got[0] != ids[5] || got[4] != ids[9] {
		t.Fatalf("ScanAfter(%d) = %v, want %v", ids[4], got, ids[5:])
	}
	// A cursor past the end yields nothing.
	v.ScanAfter(ids[9], admin, func(*QueryRecord) bool {
		t.Fatal("scan past the high-water mark visited a record")
		return false
	})
}

func TestSnapshotAtPinsMembership(t *testing.T) {
	s := NewStore()
	admin := Principal{Admin: true}
	for i := 0; i < 5; i++ {
		putQuery(t, s, "SELECT lake FROM WaterTemp", "alice", "limnology", VisibilityPublic)
	}
	mark := s.HighWater()
	for i := 0; i < 5; i++ {
		putQuery(t, s, "SELECT salinity FROM WaterSalinity", "alice", "limnology", VisibilityPublic)
	}
	n := 0
	s.SnapshotAt(mark).Scan(admin, func(rec *QueryRecord) bool {
		if rec.ID > mark {
			t.Fatalf("pinned view leaked query %d > mark %d", rec.ID, mark)
		}
		n++
		return true
	})
	if n != 5 {
		t.Fatalf("pinned view visited %d records, want 5", n)
	}
	// A mark above the current high-water is clamped.
	if got := s.SnapshotAt(mark + 1000).Limit(); got != s.HighWater() {
		t.Fatalf("SnapshotAt clamped limit = %d, want %d", got, s.HighWater())
	}
}

// TestViewGetHonoursPin: a pinned view's Get answers ErrNotFound for a query
// logged after the pin, as its scans skip it.
func TestViewGetHonoursPin(t *testing.T) {
	s := NewStore()
	admin := Principal{Admin: true}
	for i := 0; i < 3; i++ {
		putQuery(t, s, "SELECT lake FROM WaterTemp", "alice", "limnology", VisibilityPublic)
	}
	mark := s.HighWater()
	late := putQuery(t, s, "SELECT salinity FROM WaterSalinity", "alice", "limnology", VisibilityPublic)
	v := s.SnapshotAt(mark)
	if rec, err := v.Get(late, admin); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SnapshotAt(%d).Get(%d) = %v, %v; want ErrNotFound", mark, late, rec, err)
	}
	if _, err := v.Get(mark, admin); err != nil {
		t.Fatalf("SnapshotAt(%d).Get(%d): %v", mark, mark, err)
	}
}

// TestPaginationUnderConcurrentWrites drives cursor pagination the way the
// HTTP layer does — SnapshotAt(mark) + ScanByUserAfter — while a writer
// keeps inserting. Paginating to exhaustion must yield exactly the records
// that existed at the mark: no duplicates, no gaps, no late inserts. Run
// under -race this also exercises the reader/writer interleaving.
func TestPaginationUnderConcurrentWrites(t *testing.T) {
	s := NewStore()
	admin := Principal{Admin: true}
	const initial = 200
	for i := 0; i < initial; i++ {
		putQuery(t, s, fmt.Sprintf("SELECT lake FROM WaterTemp WHERE temp < %d", i), "alice", "limnology", VisibilityPublic)
	}
	mark := s.HighWater()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			putQuery(t, s, "SELECT salinity FROM WaterSalinity", "alice", "limnology", VisibilityPublic)
		}
	}()

	const pageSize = 7
	seen := make(map[QueryID]int)
	var order []QueryID
	after := QueryID(0)
	for {
		var page []QueryID
		s.SnapshotAt(mark).ScanByUserAfter("alice", after, admin, func(rec *QueryRecord) bool {
			page = append(page, rec.ID)
			return len(page) < pageSize
		})
		if len(page) == 0 {
			break
		}
		for _, id := range page {
			seen[id]++
			order = append(order, id)
		}
		after = page[len(page)-1]
	}
	close(stop)
	wg.Wait()

	if len(seen) != initial {
		t.Fatalf("paginated %d distinct records, want %d", len(seen), initial)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("query %d returned %d times", id, n)
		}
		if id > mark {
			t.Fatalf("query %d inserted after the mark leaked into the listing", id)
		}
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("pagination out of order at %d: %d after %d", i, order[i], order[i-1])
		}
	}
}

func TestPutBatchAssignsConsecutiveIDs(t *testing.T) {
	s := NewStore()
	var recs []*QueryRecord
	for i := 0; i < 4; i++ {
		rec, err := NewRecordFromSQL("SELECT lake FROM WaterTemp")
		if err != nil {
			t.Fatal(err)
		}
		rec.User = "alice"
		recs = append(recs, rec)
	}
	ids := mustPutBatch(t, s, recs)
	if len(ids) != 4 {
		t.Fatalf("PutBatch returned %d IDs", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("batch IDs not consecutive: %v", ids)
		}
	}
	if s.Count() != 4 {
		t.Fatalf("count = %d", s.Count())
	}
	// Batch mutations reach the hook in order, like individual Puts.
	s2 := NewStore()
	var hookIDs []QueryID
	s2.SetMutationHook(func(m *Mutation) error {
		if m.Op == OpPut {
			hookIDs = append(hookIDs, m.Record.ID)
		}
		return nil
	})
	var recs2 []*QueryRecord
	for range [3]int{} {
		rec, err := NewRecordFromSQL("SELECT salinity FROM WaterSalinity")
		if err != nil {
			t.Fatal(err)
		}
		recs2 = append(recs2, rec)
	}
	ids2 := mustPutBatch(t, s2, recs2)
	if len(hookIDs) != 3 {
		t.Fatalf("hook saw %d mutations, want 3", len(hookIDs))
	}
	for i, id := range ids2 {
		if hookIDs[i] != id {
			t.Fatalf("hook order %v != assigned order %v", hookIDs, ids2)
		}
	}
	if ids, errs := s2.PutBatch(nil); ids != nil || errs != nil {
		t.Fatal("empty batch should return nil")
	}
}

// TestReplaceTextKeepsBucketOrder pins the invariant the cursor scans binary
// search on: re-indexing a repaired record (ReplaceText) must keep every
// index bucket in ascending ID order, not re-append the ID at the end.
func TestReplaceTextKeepsBucketOrder(t *testing.T) {
	s := NewStore()
	admin := Principal{Admin: true}
	var ids []QueryID
	for i := 0; i < 3; i++ {
		ids = append(ids, putQuery(t, s, "SELECT lake FROM WaterTemp", "alice", "limnology", VisibilityPublic))
	}
	updated, err := NewRecordFromSQL("SELECT temp FROM WaterTemp")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceText(ids[1], updated); err != nil {
		t.Fatal(err)
	}
	var order []QueryID
	s.Snapshot().ScanByUserAfter("alice", 0, admin, func(rec *QueryRecord) bool {
		order = append(order, rec.ID)
		return true
	})
	if len(order) != 3 || order[0] != ids[0] || order[1] != ids[1] || order[2] != ids[2] {
		t.Fatalf("byUser order after ReplaceText = %v, want %v", order, ids)
	}
	// Cursor resume after the repaired record must not duplicate anything.
	var tail []QueryID
	s.Snapshot().ScanByUserAfter("alice", ids[1], admin, func(rec *QueryRecord) bool {
		tail = append(tail, rec.ID)
		return true
	})
	if len(tail) != 1 || tail[0] != ids[2] {
		t.Fatalf("ScanByUserAfter(%d) after ReplaceText = %v, want [%d]", ids[1], tail, ids[2])
	}
}
