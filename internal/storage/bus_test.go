package storage

import (
	"testing"
)

func busRecord(t *testing.T, text, user string) *QueryRecord {
	t.Helper()
	rec, err := NewRecordFromSQL(text)
	if err != nil {
		t.Fatalf("NewRecordFromSQL(%q): %v", text, err)
	}
	rec.User = user
	return rec
}

// TestBusFanOutOrder verifies the event bus contract: the WAL slot is
// notified first, then every subscriber in subscription order, for each
// mutation in commit order.
func TestBusFanOutOrder(t *testing.T) {
	s := NewStore()
	var order []string
	s.SetMutationHook(func(m *Mutation) error { order = append(order, "wal:"+string(m.Op)); return nil })
	s.Subscribe("a", func(m *Mutation) { order = append(order, "a:"+string(m.Op)) }, SubscribeOptions{})
	s.Subscribe("b", func(m *Mutation) { order = append(order, "b:"+string(m.Op)) }, SubscribeOptions{})

	id := mustPut(t, s, busRecord(t, "SELECT temp FROM WaterTemp", "alice"))
	if err := s.MarkInvalid(id, "schema change"); err != nil {
		t.Fatal(err)
	}
	want := []string{"wal:put", "a:put", "b:put", "wal:mark-invalid", "a:mark-invalid", "b:mark-invalid"}
	if len(order) != len(want) {
		t.Fatalf("fan-out = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fan-out[%d] = %q, want %q (full: %v)", i, order[i], want[i], order)
		}
	}
}

// TestBusPrevNext verifies that bus subscribers see the record versions
// before and after each mutation.
func TestBusPrevNext(t *testing.T) {
	s := NewStore()
	type seen struct {
		op         MutationOp
		prev, next *QueryRecord
	}
	var log []seen
	s.Subscribe("watch", func(m *Mutation) {
		log = append(log, seen{op: m.Op, prev: m.Prev(), next: m.Next()})
	}, SubscribeOptions{})

	rec := busRecord(t, "SELECT temp FROM WaterTemp", "alice")
	id := mustPut(t, s, rec)
	alice := Principal{User: "alice"}
	if err := s.SetVisibility(id, alice, VisibilityPublic); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(id, alice); err != nil {
		t.Fatal(err)
	}

	if len(log) != 3 {
		t.Fatalf("saw %d mutations, want 3", len(log))
	}
	if log[0].op != OpPut || log[0].prev != nil || log[0].next == nil || log[0].next.ID != id {
		t.Errorf("put: %+v", log[0])
	}
	if log[1].op != OpSetVisibility || log[1].prev == nil || log[1].next == nil {
		t.Fatalf("visibility: %+v", log[1])
	}
	if log[1].prev.Visibility != VisibilityPrivate || log[1].next.Visibility != VisibilityPublic {
		t.Errorf("visibility prev/next = %v/%v", log[1].prev.Visibility, log[1].next.Visibility)
	}
	if log[2].op != OpDelete || log[2].prev == nil || log[2].next != nil {
		t.Errorf("delete: %+v", log[2])
	}
}

// TestBusReplayReachesSubscribersNotWAL verifies that Apply (the recovery
// path) fans replayed mutations out to subscribers but never to the WAL
// slot — replay must not re-append the log to itself.
func TestBusReplayReachesSubscribersNotWAL(t *testing.T) {
	s := NewStore()
	walCalls, subCalls := 0, 0
	s.SetMutationHook(func(*Mutation) error { walCalls++; return nil })
	s.Subscribe("derived", func(*Mutation) { subCalls++ }, SubscribeOptions{})

	rec := busRecord(t, "SELECT temp FROM WaterTemp", "alice")
	rec.ID = 7
	rec.Valid = true
	if err := s.Apply(&Mutation{Op: OpPut, Record: rec}); err != nil {
		t.Fatal(err)
	}
	if walCalls != 0 {
		t.Errorf("WAL slot saw %d replayed mutations, want 0", walCalls)
	}
	if subCalls != 1 {
		t.Errorf("subscriber saw %d replayed mutations, want 1", subCalls)
	}
}

// TestBusResetOnRestore verifies RestoreState fires Rebuild instead of
// per-record mutations.
func TestBusResetOnRestore(t *testing.T) {
	s := NewStore()
	mustPut(t, s, busRecord(t, "SELECT temp FROM WaterTemp", "alice"))
	st := s.State()

	s2 := NewStore()
	mutations, rebuilds := 0, 0
	s2.Subscribe("derived", func(*Mutation) { mutations++ }, SubscribeOptions{
		Rebuild: func() { rebuilds++ },
	})
	rebuilds = 0 // the one at registration
	if err := s2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if mutations != 0 {
		t.Errorf("restore emitted %d mutations, want 0", mutations)
	}
	if rebuilds != 1 {
		t.Errorf("restore fired %d rebuilds, want 1", rebuilds)
	}
	if s2.Count() != 1 {
		t.Errorf("restored count = %d", s2.Count())
	}
}

// TestBusUnsubscribe verifies a cancelled subscription stops receiving
// mutations while others keep going.
func TestBusUnsubscribe(t *testing.T) {
	s := NewStore()
	aCalls, bCalls := 0, 0
	cancelA := s.Subscribe("a", func(*Mutation) { aCalls++ }, SubscribeOptions{})
	s.Subscribe("b", func(*Mutation) { bCalls++ }, SubscribeOptions{})
	mustPut(t, s, busRecord(t, "SELECT temp FROM WaterTemp", "alice"))
	cancelA()
	mustPut(t, s, busRecord(t, "SELECT lake FROM WaterTemp", "alice"))
	if aCalls != 1 {
		t.Errorf("cancelled subscriber saw %d mutations, want 1", aCalls)
	}
	if bCalls != 2 {
		t.Errorf("remaining subscriber saw %d mutations, want 2", bCalls)
	}
}

// TestBusSubscribeInit verifies Rebuild runs at registration so a
// subscriber can seed itself without losing a racing mutation.
func TestBusSubscribeInit(t *testing.T) {
	s := NewStore()
	mustPut(t, s, busRecord(t, "SELECT temp FROM WaterTemp", "alice"))
	seeded := 0
	s.Subscribe("derived", func(*Mutation) {}, SubscribeOptions{
		Rebuild: func() { seeded = s.Count() },
	})
	if seeded != 1 {
		t.Errorf("Rebuild at registration saw %d queries, want 1", seeded)
	}
}

// TestDistinctCountsFollowInsertsAndDeletes verifies the user and table
// counts the stats endpoint reports: tables count once whatever their casing,
// and an entry goes when its last query does.
func TestDistinctCountsFollowInsertsAndDeletes(t *testing.T) {
	s := NewStore()
	alice := Principal{User: "alice"}
	id1 := mustPut(t, s, busRecord(t, "SELECT temp FROM WaterTemp", "alice"))
	mustPut(t, s, busRecord(t, "SELECT lake FROM watertemp", "bob"))
	id3 := mustPut(t, s, busRecord(t, "SELECT city FROM CityLocations", "alice"))
	if users, tables := s.DistinctCounts(); users != 2 || tables != 2 {
		t.Fatalf("DistinctCounts = %d users, %d tables; want 2 and 2", users, tables)
	}
	for _, id := range []QueryID{id1, id3} {
		if err := s.Delete(id, alice); err != nil {
			t.Fatal(err)
		}
	}
	if users, tables := s.DistinctCounts(); users != 1 || tables != 1 {
		t.Fatalf("DistinctCounts after deleting alice's queries = %d users, %d tables; want 1 and 1", users, tables)
	}
}
