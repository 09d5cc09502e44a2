package wal

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/metaquery"
	"repro/internal/session"
	"repro/internal/storage"
)

var admin = storage.Principal{Admin: true}

// mustPut stores rec and fails the test (without stopping it: writers run on
// other goroutines too) if the store refuses it.
func mustPut(t testing.TB, s *storage.Store, rec *storage.QueryRecord) storage.QueryID {
	t.Helper()
	id, err := s.Put(rec)
	if err != nil {
		t.Errorf("Put: %v", err)
	}
	return id
}

// mustPutBatch is mustPut for PutBatch.
func mustPutBatch(t testing.TB, s *storage.Store, recs []*storage.QueryRecord) []storage.QueryID {
	t.Helper()
	ids, errs := s.PutBatch(recs)
	if errs != nil {
		t.Errorf("PutBatch: %v", errs)
	}
	return ids
}

// buildStore logs n queries through a durable store, exercising every
// mutation class: puts, annotations, visibility changes, invalidation/repair,
// stats, samples, stale flags and a deletion.
func buildStore(t testing.TB, store *storage.Store, n int) {
	t.Helper()
	tables := []string{"WaterTemp", "WaterSalinity", "Observations", "Stations"}
	for i := 0; i < n; i++ {
		table := tables[i%len(tables)]
		rec, err := storage.NewRecordFromSQL(
			fmt.Sprintf("SELECT %s.temp, %s.lake FROM %s WHERE %s.temp < %d", table, table, table, table, i))
		if err != nil {
			t.Fatal(err)
		}
		rec.User = fmt.Sprintf("user%d", i%3)
		rec.Group = "limnology"
		rec.Visibility = storage.VisibilityGroup
		rec.IssuedAt = time.Unix(1700000000+int64(i)*60, 0).UTC()
		rec.Stats = storage.RuntimeStats{
			ExecTime:   time.Duration(i+1) * time.Millisecond,
			ResultRows: i * 7,
			ExecutedAt: rec.IssuedAt,
		}
		id := mustPut(t, store, rec)

		owner := storage.Principal{User: rec.User, Groups: []string{"limnology"}}
		if i%2 == 0 {
			if err := store.Annotate(id, owner, storage.Annotation{
				Text: fmt.Sprintf("note on %d", i), Fragment: table,
				At: rec.IssuedAt.Add(time.Second),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 0 {
			if err := store.SetVisibility(id, owner, storage.VisibilityPublic); err != nil {
				t.Fatal(err)
			}
		}
		if i%5 == 0 {
			if err := store.MarkInvalid(id, "schema drift"); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 0 {
			if err := store.MarkValid(id); err != nil {
				t.Fatal(err)
			}
			if err := store.UpdateStats(id, storage.RuntimeStats{
				ExecTime: 42 * time.Millisecond, ResultRows: 9, ExecutedAt: rec.IssuedAt.Add(time.Minute),
			}); err != nil {
				t.Fatal(err)
			}
			if err := store.SetSample(id, &storage.OutputSample{
				Columns: []string{"temp", "lake"}, Rows: [][]string{{"11.5", "Washington"}}, TotalRows: 9, Truncated: true,
			}); err != nil {
				t.Fatal(err)
			}
			if err := store.MarkStatsStale(id, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Delete one mid-log query so recovery also replays a removal.
	victim := storage.QueryID(n / 2)
	if rec, err := store.Get(victim, admin); err == nil {
		if err := store.Delete(victim, storage.Principal{User: rec.User}); err != nil {
			t.Fatal(err)
		}
	}
}

// assertStoresEqual checks deep equality of store contents (via the
// serialised state, which includes every record field and the ID counter)
// and of index-backed search results.
func assertStoresEqual(t *testing.T, want, got *storage.Store) {
	t.Helper()
	wantJSON, err := json.Marshal(want.CaptureState(nil))
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got.CaptureState(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("recovered state differs from original\noriginal:  %.400s...\nrecovered: %.400s...", wantJSON, gotJSON)
	}

	// Index-backed lookups: tables, users.
	group := storage.Principal{User: "user1", Groups: []string{"limnology"}}
	for _, p := range []storage.Principal{admin, group} {
		for _, table := range []string{"WaterTemp", "WaterSalinity", "Observations"} {
			byTable := func(v *storage.View, fn scanFn) { v.ScanByTable(table, p, fn) }
			if w, g := ids(want, byTable), ids(got, byTable); !reflect.DeepEqual(w, g) {
				t.Fatalf("ScanByTable(%s) as %q: want %v, got %v", table, p.User, w, g)
			}
		}
		for _, user := range []string{"user0", "user1", "user2"} {
			byUser := func(v *storage.View, fn scanFn) { v.ScanByUserAfter(user, 0, p, fn) }
			if w, g := ids(want, byUser), ids(got, byUser); !reflect.DeepEqual(w, g) {
				t.Fatalf("ScanByUserAfter(%s) as %q: want %v, got %v", user, p.User, w, g)
			}
		}
	}

	// Keyword search runs on the recovered indexes through the meta-query
	// executor, the paper's interactive search path.
	q, err := metaquery.Keywords("watertemp")
	if err != nil {
		t.Fatal(err)
	}
	wantPage, err := metaquery.New(want, session.AttachLive(want).SessionOf).Page(context.Background(), admin, q, metaquery.Cursor{}, 0)
	if err != nil {
		t.Fatalf("Keyword(want): %v", err)
	}
	gotPage, err := metaquery.New(got, session.AttachLive(got).SessionOf).Page(context.Background(), admin, q, metaquery.Cursor{}, 0)
	if err != nil {
		t.Fatalf("Keyword(got): %v", err)
	}
	wantMatches, gotMatches := wantPage.Matches, gotPage.Matches
	if len(wantMatches) == 0 || len(wantMatches) != len(gotMatches) {
		t.Fatalf("keyword search: want %d matches, got %d", len(wantMatches), len(gotMatches))
	}
	for i := range wantMatches {
		if wantMatches[i].Record.ID != gotMatches[i].Record.ID {
			t.Fatalf("keyword search order differs at %d: %d vs %d",
				i, wantMatches[i].Record.ID, gotMatches[i].Record.ID)
		}
	}
}

type scanFn = func(*storage.QueryRecord) bool

// ids returns the IDs one index scan over the store's current snapshot
// visits, in order.
func ids(store *storage.Store, scan func(*storage.View, scanFn)) []storage.QueryID {
	out := []storage.QueryID{}
	scan(store.Snapshot(), func(r *storage.QueryRecord) bool {
		out = append(out, r.ID)
		return true
	})
	return out
}

func testConfig(dir string) Config {
	cfg := DefaultConfig(dir)
	cfg.SyncPolicy = "off" // tests close cleanly; no fsyncs needed
	return cfg
}

func TestCrashRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store := storage.NewStore()
	mgr, info, err := Open(store, testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq != 0 || info.Replayed != 0 {
		t.Fatalf("fresh dir recovered %+v", info)
	}
	buildStore(t, store, 40)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := storage.NewStore()
	mgr2, info2, err := Open(recovered, testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if info2.Replayed == 0 {
		t.Fatal("recovery replayed nothing")
	}
	if info2.Queries != store.Count() {
		t.Fatalf("recovered %d queries, want %d", info2.Queries, store.Count())
	}
	assertStoresEqual(t, store, recovered)

	// New writes after recovery continue the log without clashing IDs.
	rec, err := storage.NewRecordFromSQL("SELECT Stations.name FROM Stations")
	if err != nil {
		t.Fatal(err)
	}
	rec.User = "user0"
	id := mustPut(t, recovered, rec)
	if id <= 40 {
		t.Fatalf("post-recovery Put assigned id %d, want > 40", id)
	}
}

func TestRecoveryWithSnapshotAndTail(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SegmentBytes = 4 << 10 // force several segments
	store := storage.NewStore()
	mgr, _, err := Open(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	buildStore(t, store, 30)

	// Snapshot + compact mid-stream, then keep writing: recovery must load
	// the snapshot and replay only the tail.
	path, seq, removed, err := mgr.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if seq == 0 || path == "" {
		t.Fatalf("compact returned (%q, %d)", path, seq)
	}
	if removed == 0 {
		t.Fatal("compaction removed no segments")
	}
	buildStore(t, store, 20) // more mutations after the snapshot
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := storage.NewStore()
	mgr2, info, err := Open(recovered, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if info.SnapshotSeq != seq {
		t.Fatalf("recovered from snapshot %d, want %d", info.SnapshotSeq, seq)
	}
	if info.Replayed == 0 {
		t.Fatal("no tail records replayed after the snapshot")
	}
	assertStoresEqual(t, store, recovered)
}

func TestTornWriteRecoversToLastValidRecord(t *testing.T) {
	dir := t.TempDir()
	store := storage.NewStore()
	mgr, _, err := Open(store, testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	buildStore(t, store, 20)
	// Capture the state before the final mutation: that mutation's log record
	// is about to be torn, so recovery must land exactly here.
	want := store.CaptureState(nil)
	for i, rec := range want.Records {
		want.Records[i] = rec.Clone()
	}
	want.Shapes, want.NextShape = nil, 0
	rec, err := storage.NewRecordFromSQL("SELECT Observations.id FROM Observations")
	if err != nil {
		t.Fatal(err)
	}
	rec.User = "user0"
	mustPut(t, store, rec)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record: chop bytes off the newest segment's tail.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(dir, segs[len(segs)-1].Name)
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	recovered := storage.NewStore()
	mgr2, rinfo, err := Open(recovered, testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if !rinfo.TornTail {
		t.Fatal("recovery did not report the torn tail")
	}
	wantStore := storage.NewStore()
	if err := wantStore.RestoreState(want); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, wantStore, recovered)

	// The torn record's sequence is reused by the next mutation.
	rec2, _ := storage.NewRecordFromSQL("SELECT Stations.name FROM Stations")
	rec2.User = "user1"
	mustPut(t, recovered, rec2)
	if err := mgr2.Err(); err != nil {
		t.Fatalf("append after torn-tail recovery failed: %v", err)
	}
}

func TestSnapshotBeyondTornTailDoesNotReuseSequences(t *testing.T) {
	dir := t.TempDir()
	store := storage.NewStore()
	mgr, _, err := Open(store, testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	buildStore(t, store, 10)
	// Durable snapshot at the current head...
	if _, seq, err := mgr.Snapshot(); err != nil || seq == 0 {
		t.Fatalf("Snapshot: seq=%d err=%v", seq, err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	// ...then simulate a crash that lost the last WAL records: the tail is
	// truncated below the snapshot's sequence.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(dir, segs[len(segs)-1].Name)
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-40); err != nil {
		t.Fatal(err)
	}

	recovered := storage.NewStore()
	mgr2, rinfo, err := Open(recovered, testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	snapSeq := rinfo.SnapshotSeq
	// New mutations must be logged past the snapshot sequence, or the next
	// recovery would silently skip them.
	rec, _ := storage.NewRecordFromSQL("SELECT Stations.name FROM Stations")
	rec.User = "user0"
	mustPut(t, recovered, rec)
	recoveredCount := recovered.Count()
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}

	again := storage.NewStore()
	mgr3, rinfo3, err := Open(again, testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr3.Close()
	if rinfo3.Replayed == 0 {
		t.Fatalf("post-snapshot mutation was not replayed (snapshot seq %d)", snapSeq)
	}
	if again.Count() != recoveredCount {
		t.Fatalf("second recovery has %d queries, want %d", again.Count(), recoveredCount)
	}
	assertStoresEqual(t, recovered, again)
}

func TestOpenRejectsMissingLogPrefix(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SegmentBytes = 2 << 10 // several segments, so compaction removes some
	store := storage.NewStore()
	mgr, _, err := Open(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	buildStore(t, store, 10)
	if _, _, _, err := mgr.Compact(); err != nil {
		t.Fatal(err)
	}
	buildStore(t, store, 5)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	// Destroy the snapshot that justified compaction. With records only
	// reachable through it, recovery must refuse rather than serve a store
	// with a hole in it.
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range snaps {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if segs[0].FirstSeq == 1 {
		t.Fatal("compaction removed no segments; test needs a truncated log")
	}
	if _, _, err := Open(storage.NewStore(), cfg); err == nil {
		t.Fatal("Open succeeded over a log with a missing prefix")
	}
}

func TestMaybeSnapshotSkipsIdleStore(t *testing.T) {
	dir := t.TempDir()
	store := storage.NewStore()
	mgr, _, err := Open(store, testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	buildStore(t, store, 5)
	if err := mgr.MaybeSnapshot(); err != nil {
		t.Fatal(err)
	}
	first, err := mgr.Info()
	if err != nil {
		t.Fatal(err)
	}
	if first.SnapshotSeq == 0 {
		t.Fatal("MaybeSnapshot did not snapshot a dirty store")
	}
	// No mutations since: a second call must not write a new snapshot.
	if err := mgr.MaybeSnapshot(); err != nil {
		t.Fatal(err)
	}
	second, err := mgr.Info()
	if err != nil {
		t.Fatal(err)
	}
	if second.SnapshotSeq != first.SnapshotSeq {
		t.Fatalf("idle MaybeSnapshot moved snapshot seq %d -> %d", first.SnapshotSeq, second.SnapshotSeq)
	}
}
