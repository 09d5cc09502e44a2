package storage

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// stressSQL is a small pool of parseable query texts used by the stress
// writers.
var stressSQL = []string{
	"SELECT * FROM WaterTemp WHERE temp < 18",
	"SELECT salinity FROM WaterSalinity WHERE depth > 5",
	"SELECT city FROM CityLocations WHERE state = 'WA'",
	"SELECT ra, dec FROM Stars WHERE magnitude < 6",
}

func stressRecord(t testing.TB, i int) *QueryRecord {
	t.Helper()
	rec, err := NewRecordFromSQL(stressSQL[i%len(stressSQL)])
	if err != nil {
		t.Fatalf("NewRecordFromSQL: %v", err)
	}
	rec.User = fmt.Sprintf("user%d", i%3)
	rec.Group = "limnology"
	rec.Visibility = Visibility(i % 3)
	return rec
}

// TestConcurrentMutationsWithScans hammers the store with concurrent Put,
// Annotate, Delete, UpdateStats, MarkInvalid/MarkValid and SetVisibility
// writers — many of them repeats, which change nothing — while snapshot scans
// and indexed scans run, asserting that no reader ever observes a half-applied
// mutation. Run under -race (the CI does)
// to also validate the lock discipline of the copy-on-write indexes.
//
// The invariants rely on writers always changing field pairs together:
//   - UpdateStats always sets ResultRows == ResultColumns,
//   - MarkInvalid always supplies a reason, MarkValid always clears it,
//   - Annotate always sets both Author and Text.
//
// A reader observing a record mid-mutation would see the pairs disagree.
func TestConcurrentMutationsWithScans(t *testing.T) {
	s := NewStore()
	const seed = 64
	ids := make([]QueryID, seed)
	for i := 0; i < seed; i++ {
		ids[i] = mustPut(t, s, stressRecord(t, i))
	}
	admin := Principal{Admin: true}
	member := Principal{User: "user1", Groups: []string{"limnology"}}

	const (
		writers        = 4
		readers        = 4
		opsPerWriter   = 300
		scansPerReader = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWriter; i++ {
				id := ids[rng.Intn(len(ids))]
				switch rng.Intn(7) {
				case 0:
					mustPut(t, s, stressRecord(t, rng.Int()))
				case 1:
					// Only the owner or a group member may annotate; admin
					// always can.
					_ = s.Annotate(id, admin, Annotation{Author: "stress", Text: "note"})
				case 2:
					n := rng.Intn(1000)
					if err := s.UpdateStats(id, RuntimeStats{ResultRows: n, ResultColumns: n}); err != nil {
						// The record may have been deleted concurrently.
						continue
					}
				case 3:
					_ = s.MarkInvalid(id, "stress: schema drift")
				case 4:
					_ = s.MarkValid(id)
				case 5:
					_ = s.SetVisibility(id, admin, Visibility(rng.Intn(3)))
				case 6:
					// Delete and re-log a fresh query so the store keeps its
					// size; deletes exercise the copy-on-write index removal.
					if rng.Intn(4) == 0 {
						_ = s.Delete(id, admin)
					}
				}
			}
		}(w)
	}

	check := func(rec *QueryRecord) bool {
		if rec.ID == 0 {
			report("scan observed a record without an ID")
			return false
		}
		if rec.Stats.ResultRows != rec.Stats.ResultColumns {
			report("half-applied UpdateStats: rows=%d cols=%d", rec.Stats.ResultRows, rec.Stats.ResultColumns)
			return false
		}
		if !rec.Valid && rec.InvalidReason == "" {
			report("half-applied MarkInvalid: invalid without reason (q%d)", rec.ID)
			return false
		}
		if rec.Valid && rec.InvalidReason != "" {
			report("half-applied MarkValid: valid with reason (q%d)", rec.ID)
			return false
		}
		for _, a := range rec.Annotations {
			if a.Author == "" || a.Text == "" {
				report("half-applied annotation: %+v", a)
				return false
			}
		}
		return true
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < scansPerReader; i++ {
				view := s.Snapshot()
				seen := 0
				view.Scan(admin, func(rec *QueryRecord) bool {
					seen++
					return check(rec)
				})
				if seen == 0 {
					report("snapshot scan saw an empty store")
					return
				}
				view.ScanByTable(context.Background(), "WaterTemp", member, func(rec *QueryRecord) bool {
					if !rec.VisibleTo(member) {
						report("indexed scan leaked an invisible record (q%d)", rec.ID)
						return false
					}
					return check(rec)
				})
				view.ScanByUserAfter(context.Background(), "user1", 0, member, check)
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSnapshotMembershipIsStable pins the View contract: queries inserted
// after the snapshot stay invisible to both full and indexed scans, queries
// deleted after the snapshot are skipped, and mutations to surviving records
// are observed atomically.
func TestSnapshotMembershipIsStable(t *testing.T) {
	s := NewStore()
	admin := Principal{Admin: true}
	var ids []QueryID
	for i := 0; i < 4; i++ {
		ids = append(ids, mustPut(t, s, stressRecord(t, i*4))) // all reference WaterTemp
	}
	view := s.Snapshot()

	// Insert after the snapshot: invisible to Scan and ScanByTable.
	mustPut(t, s, stressRecord(t, 0))
	// Delete one captured query: skipped.
	if err := s.Delete(ids[1], admin); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// Mutate a surviving query: the scan sees the latest committed version.
	n := 0
	if err := s.UpdateStats(ids[0], RuntimeStats{ResultRows: 7, ResultColumns: 7}); err != nil {
		t.Fatalf("UpdateStats: %v", err)
	}
	view.Scan(admin, func(rec *QueryRecord) bool {
		n++
		if rec.ID == ids[1] {
			t.Errorf("scan visited deleted query %d", rec.ID)
		}
		if rec.ID == ids[0] && rec.Stats.ResultRows != 7 {
			t.Errorf("scan saw stale stats for q%d: %+v", rec.ID, rec.Stats)
		}
		return true
	})
	if n != 3 {
		t.Errorf("scan visited %d queries, want 3 (4 captured - 1 deleted, insert excluded)", n)
	}
	indexed := 0
	view.ScanByTable(context.Background(), "WaterTemp", admin, func(rec *QueryRecord) bool {
		indexed++
		return true
	})
	if indexed != 3 {
		t.Errorf("indexed scan visited %d queries, want 3", indexed)
	}
	if got := s.Snapshot().Len(); got != 4 {
		t.Errorf("fresh snapshot Len = %d, want 4", got)
	}
}

// TestIndexBucketsDropWhenEmpty pins the index-leak fix: deleting the last
// query referencing a table/user removes the bucket key from the index
// instead of leaving an empty slice behind.
func TestIndexBucketsDropWhenEmpty(t *testing.T) {
	s := NewStore()
	admin := Principal{Admin: true}
	rec, err := NewRecordFromSQL("SELECT ra FROM Stars WHERE magnitude < 6")
	if err != nil {
		t.Fatal(err)
	}
	rec.User = "carol"
	id := mustPut(t, s, rec)
	if err := s.Delete(id, admin); err != nil {
		t.Fatal(err)
	}
	s.index.mu.RLock()
	defer s.index.mu.RUnlock()
	if _, ok := s.index.byTable["stars"]; ok {
		t.Error("byTable bucket leaked after delete")
	}
	if _, ok := s.index.byUser["carol"]; ok {
		t.Error("byUser bucket leaked after delete")
	}
}

// TestLowerCaseShared pins the insert-time lower-casing: stored records of one
// text share one shape, which holds the lower-cased strings, and ReplaceText
// moves them to the shape of the new text.
func TestLowerCaseShared(t *testing.T) {
	s := NewStore()
	var ids [2]QueryID
	for i := range ids {
		rec, err := NewRecordFromSQL("SELECT City FROM CityLocations WHERE State = 'WA'")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = mustPut(t, s, rec)
	}
	admin := Principal{Admin: true}
	a, _ := s.Snapshot().Get(ids[0], admin)
	b, _ := s.Snapshot().Get(ids[1], admin)
	if a.LowerText() != "select city from citylocations where state = 'wa'" {
		t.Errorf("LowerText = %q", a.LowerText())
	}
	if a.QueryShape != b.QueryShape || a.text == "" || a.LowerCanonical() != strings.ToLower(a.Canonical) {
		t.Errorf("records of one text do not share a shape: %p vs %p", a.QueryShape, b.QueryShape)
	}
	updated, err := NewRecordFromSQL("SELECT Lake FROM WaterTemp")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceText(ids[0], updated); err != nil {
		t.Fatal(err)
	}
	a, _ = s.Snapshot().Get(ids[0], admin)
	if a.LowerText() != "select lake from watertemp" || a.QueryShape == b.QueryShape {
		t.Errorf("LowerText after ReplaceText = %q", a.LowerText())
	}
	// Records that never entered a store, and owned copies, lower on the fly.
	probe := &QueryRecord{QueryShape: &QueryShape{Text: "SELECT X"}}
	if probe.LowerText() != "select x" || a.Clone().text != "" {
		t.Errorf("fallback LowerText = %q", probe.LowerText())
	}
}
