package storage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// scanIDsOf collects the IDs a scan visits, in visiting order.
func scanIDsOf(scan func(fn func(*QueryRecord) bool)) []QueryID {
	var ids []QueryID
	scan(func(rec *QueryRecord) bool {
		ids = append(ids, rec.ID)
		return true
	})
	return ids
}

// TestReplayedPutKeepsIDOrder: replaying a put of an ID the store already
// holds (a snapshot and a log segment that overlap) replaces the record where
// it stands, so scans and cursor pages keep visiting IDs in ascending order.
func TestReplayedPutKeepsIDOrder(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		putQuery(t, s, "SELECT lake FROM WaterTemp", "alice", "limnology", VisibilityPublic)
	}
	again := busRecord(t, "SELECT temp FROM WaterTemp", "bob")
	again.ID = 2
	if err := s.Apply(&Mutation{Op: OpPut, Record: again}); err != nil {
		t.Fatal(err)
	}
	v := s.Snapshot()
	if got, want := scanIDsOf(func(fn func(*QueryRecord) bool) { v.Scan(admin, fn) }), []QueryID{1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("Scan = %v, want %v", got, want)
	}
	if got, want := scanIDsOf(func(fn func(*QueryRecord) bool) { v.ScanAfter(1, admin, fn) }), []QueryID{2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("ScanAfter(1) = %v, want %v", got, want)
	}
	if got, want := scanIDsOf(func(fn func(*QueryRecord) bool) { v.ScanAfter(3, admin, fn) }), []QueryID{4, 5}; !slices.Equal(got, want) {
		t.Fatalf("ScanAfter(3) = %v, want %v", got, want)
	}
	var order []QueryID
	for _, rec := range s.CaptureState(nil).Records {
		order = append(order, rec.ID)
	}
	if want := []QueryID{1, 2, 3, 4, 5}; !slices.Equal(order, want) {
		t.Fatalf("CaptureState order = %v, want %v", order, want)
	}
	if rec, err := s.Get(2, admin); err != nil || rec.User != "bob" {
		t.Fatalf("Get(2) = %+v, %v; want bob's replayed record", rec, err)
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d, want 5", s.Count())
	}
}

// TestOutOfRangeIDsAreRefused: a record ID must lie in [1, MaxQueryID]. A
// replayed put outside it is refused and leaves the store — the high-water
// mark included — as it was, a snapshot chunk or header carrying one does not
// decode, and a live put that would need an ID past MaxQueryID is refused
// with an error.
func TestOutOfRangeIDsAreRefused(t *testing.T) {
	s := NewStore()
	putQuery(t, s, "SELECT lake FROM WaterTemp", "alice", "limnology", VisibilityPublic)
	for _, id := range []QueryID{-7, 0, MaxQueryID + 1, 1 << 60} {
		rec := busRecord(t, "SELECT temp FROM WaterTemp", "bob")
		rec.ID = id
		if err := s.Apply(&Mutation{Op: OpPut, Record: rec}); err == nil {
			t.Errorf("Apply(put %d) accepted", id)
		}
		if s.HighWater() != 1 || s.Count() != 1 {
			t.Fatalf("after refusing %d: high water %d, count %d; want 1, 1", id, s.HighWater(), s.Count())
		}
		rec.seq = 1
		if _, err := snapshotPayloads(&StoreState{Records: []*QueryRecord{rec}, Shapes: []*QueryShape{rec.QueryShape}, NextShape: 2}, 1<<20); err == nil {
			t.Errorf("DecodeRecordChunk accepted record ID %d", id)
		}
		header := AppendSnapshotHeader(nil, &StoreState{NextID: id})
		if _, err := DecodeSnapshotHeader(header); (err == nil) != (id == 0) {
			t.Errorf("DecodeSnapshotHeader(NextID %d): err %v", id, err)
		}
	}
	if got := putQuery(t, s, "SELECT lake FROM WaterTemp", "alice", "limnology", VisibilityPublic); got != 2 {
		t.Fatalf("next live put got ID %d, want 2", got)
	}

	last := busRecord(t, "SELECT temp FROM WaterTemp", "bob")
	last.ID = MaxQueryID
	if err := s.Apply(&Mutation{Op: OpPut, Record: last}); err != nil {
		t.Fatalf("Apply(put MaxQueryID): %v", err)
	}
	if id, err := s.Put(busRecord(t, "SELECT lake FROM WaterTemp", "alice")); err == nil {
		t.Fatalf("live put past MaxQueryID got ID %d", id)
	}
	ids, errs := s.PutBatch([]*QueryRecord{busRecord(t, "SELECT lake FROM WaterTemp", "alice")})
	if errs == nil || errs[0] == nil || ids[0] != 0 {
		t.Fatalf("PutBatch past MaxQueryID = %v, %v", ids, errs)
	}
	if s.HighWater() != MaxQueryID || s.Count() != 3 {
		t.Fatalf("high water %d, count %d; want %d, 3", s.HighWater(), s.Count(), MaxQueryID)
	}
	v := s.Snapshot()
	if got := scanIDsOf(func(fn func(*QueryRecord) bool) { v.Scan(admin, fn) }); !slices.Equal(got, []QueryID{1, 2, MaxQueryID}) {
		t.Fatalf("Scan = %v", got)
	}
	// A cursor is a client's number: any value resumes a scan, none panics.
	for cursor, want := range map[QueryID][]QueryID{math.MinInt64: {1, 2, MaxQueryID}, -7: {1, 2, MaxQueryID}, 2: {MaxQueryID}, MaxQueryID: nil, math.MaxInt64: nil} {
		if got := scanIDsOf(func(fn func(*QueryRecord) bool) { v.ScanAfter(cursor, admin, fn) }); !slices.Equal(got, want) {
			t.Errorf("ScanAfter(%d) = %v, want %v", cursor, got, want)
		}
	}
}

// mapOracle is the reference model of the record table: one map from ID to
// record, ordered by sorting, indexed by scanning. It mirrors every operation
// the test drives, on its own copies of the records.
type mapOracle struct {
	recs      map[QueryID]*QueryRecord
	highWater QueryID
}

func (o *mapOracle) put(rec *QueryRecord) {
	o.recs[rec.ID] = rec.Clone()
	o.highWater = max(o.highWater, rec.ID)
}

// scan visits the records with IDs in (cursor, limit] that keep says to keep
// and p may see, in ID order.
func (o *mapOracle) scan(cursor, limit QueryID, p Principal, keep func(*QueryRecord) bool) []string {
	var ids []QueryID
	for id, rec := range o.recs {
		if id > cursor && id <= limit && rec.VisibleTo(p) && keep(rec) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = digest(o.recs[id])
	}
	return out
}

// digest is what the oracle compares of a record: its identity and every
// field the driven operations change.
func digest(rec *QueryRecord) string {
	return fmt.Sprintf("%d %s/%s %s %q", rec.ID, rec.User, rec.Group, rec.Visibility, rec.Text)
}

func digests(scan func(fn func(*QueryRecord) bool)) []string {
	var out []string
	scan(func(rec *QueryRecord) bool {
		out = append(out, digest(rec))
		return true
	})
	return out
}

// TestRecordTableMatchesMapOracle drives a store and the map oracle through a
// random history — puts, batches, deletes, visibility changes, text repairs,
// replayed puts of existing IDs, IDs that skip whole leaves, and a restore
// from the store's own state — and after every step compares what each
// answers: Get, Scan and ScanAfter on views pinned at earlier marks,
// ScanByTable, ScanByUserAfter, Count, HighWater, Len and the order
// CaptureState collects records in.
func TestRecordTableMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	users := []string{"u0", "u1", "u2", "u3"}
	groups := []string{"g0", "g1"}
	tables := []string{"WaterTemp", "WaterSalinity", "CityLocations"}
	principals := []Principal{admin, {}}
	for i, u := range users {
		principals = append(principals, Principal{User: u, Groups: []string{groups[i%len(groups)]}})
	}
	record := func() *QueryRecord {
		tbl := tables[rng.Intn(len(tables))]
		rec := busRecord(t, fmt.Sprintf("SELECT * FROM %s WHERE x < %d", tbl, rng.Intn(20)), users[rng.Intn(len(users))])
		rec.Group = groups[rng.Intn(len(groups))]
		rec.Visibility = Visibility(rng.Intn(3))
		return rec
	}

	s := NewStore()
	o := &mapOracle{recs: make(map[QueryID]*QueryRecord)}
	live := func() []QueryID {
		ids := make([]QueryID, 0, len(o.recs))
		for id := range o.recs {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids
	}
	// replay stores a record under an ID of the test's choosing, the way
	// recovery and a follower do.
	replay := func(id QueryID) {
		rec := record()
		rec.ID = id
		if err := s.Apply(&Mutation{Op: OpPut, Record: rec.Clone()}); err != nil {
			t.Fatalf("Apply(put %d): %v", id, err)
		}
		o.put(rec)
	}
	// The log starts near the end of the first leaf, so live puts cross into
	// the second.
	replay(leafSize - 10)
	var marks []QueryID

	check := func(step int, what string) {
		t.Helper()
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d (%s): "+format, append([]any{step, what}, args...)...)
		}
		if s.Count() != len(o.recs) || s.HighWater() != o.highWater {
			fail("count %d, high water %d; oracle %d, %d", s.Count(), s.HighWater(), len(o.recs), o.highWater)
		}
		if n := s.Snapshot().Len(); n != len(o.recs) {
			fail("Len %d, oracle %d", n, len(o.recs))
		}
		var captured []QueryID
		st := s.CaptureState(nil)
		for _, rec := range st.Records {
			captured = append(captured, rec.ID)
		}
		if want := live(); !slices.Equal(captured, want) || st.NextID != o.highWater {
			fail("CaptureState = %v (next %d), oracle %v (next %d)", captured, st.NextID, want, o.highWater)
		}
		marks = append(marks, s.HighWater())
		p := principals[rng.Intn(len(principals))]
		for k := 0; k < 3; k++ {
			id := QueryID(rng.Int63n(int64(o.highWater) + 3))
			rec, err := s.Get(id, p)
			want, ok := o.recs[id]
			switch {
			case !ok:
				if !errors.Is(err, ErrNotFound) {
					fail("Get(%d) of a missing record: %v", id, err)
				}
			case !want.VisibleTo(p):
				if !errors.Is(err, ErrAccessDenied) {
					fail("Get(%d) of a hidden record: %v", id, err)
				}
			case err != nil || digest(rec) != digest(want):
				fail("Get(%d) = %v, %v; oracle %s", id, rec, err, digest(want))
			}
		}
		all := func(*QueryRecord) bool { return true }
		limit := marks[rng.Intn(len(marks))]
		v := s.SnapshotAt(limit)
		if got, want := digests(func(fn func(*QueryRecord) bool) { v.Scan(p, fn) }), o.scan(0, limit, p, all); !slices.Equal(got, want) {
			fail("Scan at mark %d:\n got %v\nwant %v", limit, got, want)
		}
		cursor := QueryID(rng.Int63n(int64(limit) + 2))
		if got, want := digests(func(fn func(*QueryRecord) bool) { v.ScanAfter(cursor, p, fn) }), o.scan(cursor, limit, p, all); !slices.Equal(got, want) {
			fail("ScanAfter(%d) at mark %d:\n got %v\nwant %v", cursor, limit, got, want)
		}
		user := users[rng.Intn(len(users))]
		if got, want := digests(func(fn func(*QueryRecord) bool) { v.ScanByUserAfter(user, cursor, p, fn) }),
			o.scan(cursor, limit, p, func(rec *QueryRecord) bool { return rec.User == user }); !slices.Equal(got, want) {
			fail("ScanByUserAfter(%s, %d) at mark %d:\n got %v\nwant %v", user, cursor, limit, got, want)
		}
		table := tables[rng.Intn(len(tables))]
		if rng.Intn(2) == 0 {
			table = strings.ToUpper(table)
		}
		if got, want := digests(func(fn func(*QueryRecord) bool) { v.ScanByTable(table, p, fn) }),
			o.scan(0, limit, p, func(rec *QueryRecord) bool {
				return slices.ContainsFunc(rec.Tables, func(t string) bool { return strings.EqualFold(t, table) })
			}); !slices.Equal(got, want) {
			fail("ScanByTable(%s) at mark %d:\n got %v\nwant %v", table, limit, got, want)
		}
	}

	const steps = 1200
	for step := 0; step < steps; step++ {
		ids := live()
		pick := func() QueryID { return ids[rng.Intn(len(ids))] }
		var what string
		switch op := rng.Intn(20); {
		case step == steps/2:
			what = "restore"
			if err := s.RestoreState(s.State()); err != nil {
				t.Fatal(err)
			}
		case step == steps/3:
			// A replayed put two leaves past the high-water mark: the leaf in
			// between is never allocated.
			what = "replay past a leaf"
			replay((o.highWater>>leafBits+2)<<leafBits + 7)
		case op < 6 || len(ids) == 0:
			what = "put"
			rec := record()
			id, err := s.Put(rec.Clone())
			if err != nil {
				t.Fatal(err)
			}
			rec.ID = id
			o.put(rec)
		case op < 9:
			what = "putbatch"
			recs := make([]*QueryRecord, 1+rng.Intn(5))
			for i := range recs {
				recs[i] = record()
			}
			clones := make([]*QueryRecord, len(recs))
			for i, rec := range recs {
				clones[i] = rec.Clone()
			}
			got, errs := s.PutBatch(clones)
			if errs != nil {
				t.Fatal(errs)
			}
			for i, rec := range recs {
				rec.ID = got[i]
				o.put(rec)
			}
		case op < 13:
			what = "delete"
			id := pick()
			if err := s.Delete(id, admin); err != nil {
				t.Fatal(err)
			}
			delete(o.recs, id)
		case op < 15:
			what = "visibility"
			id, vis := pick(), Visibility(rng.Intn(3))
			if err := s.SetVisibility(id, admin, vis); err != nil {
				t.Fatal(err)
			}
			o.recs[id].Visibility = vis
		case op < 17:
			what = "replace text"
			id, updated := pick(), record()
			if err := s.ReplaceText(id, updated.Clone()); err != nil {
				t.Fatal(err)
			}
			o.recs[id].QueryShape = updated.QueryShape
		default:
			what = "replayed put"
			replay(pick())
		}
		check(step, what)
	}
}

// BenchmarkDeleteAt prices one delete in a store of 10^4 and 10^6 records
// spread over 5,000 users, 64 tables and 256 texts: the oldest record goes,
// and every 1,024 deletes a batch put (untimed) brings the log back to its
// size.
func BenchmarkDeleteAt(b *testing.B) {
	const refill = 1024
	shapes := make([]*QueryRecord, 256)
	for i := range shapes {
		shapes[i] = mustRecord(b, fmt.Sprintf("SELECT a FROM t%d WHERE b < %d", i%64, i))
	}
	users := make([]string, 5000)
	for i := range users {
		users[i] = fmt.Sprintf("user%04d", i)
	}
	fill := func(s *Store, n int) {
		for i := 0; i < n; i += refill {
			batch := make([]*QueryRecord, min(refill, n-i))
			for j := range batch {
				rec := *shapes[(i+j)%len(shapes)] // stored records are immutable: the shape is shared
				rec.User = users[(i+j)%len(users)]
				batch[j] = &rec
			}
			if _, errs := s.PutBatch(batch); errs != nil {
				b.Fatal(errs)
			}
		}
	}
	for _, size := range []int{10_000, 1_000_000} {
		b.Run(fmt.Sprintf("records=%d", size), func(b *testing.B) {
			s := NewStore()
			fill(s, size)
			next := QueryID(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				if err := s.Delete(next, admin); err != nil {
					b.Fatal(err)
				}
				next++
				if i%refill == 0 {
					b.StopTimer()
					fill(s, refill)
					b.StartTimer()
				}
			}
		})
	}
}
