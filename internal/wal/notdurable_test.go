package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// breakLog closes the active segment's file under the committer: its next
// write fails the way a yanked disk would.
func breakLog(t *testing.T, m *Manager) {
	t.Helper()
	m.log.ioMu.Lock()
	defer m.log.ioMu.Unlock()
	if err := m.log.file.Close(); err != nil {
		t.Fatal(err)
	}
}

func notDurableRecord(t *testing.T, i int) *storage.QueryRecord {
	t.Helper()
	rec, err := storage.NewRecordFromSQL(fmt.Sprintf("SELECT temp FROM WaterTemp WHERE temp < %d", i))
	if err != nil {
		t.Fatal(err)
	}
	rec.User = "alice"
	return rec
}

// TestNotDurableUnderSyncAlways: acked means durable, so the call whose log
// write or covering fsync fails is itself answered with ErrNotDurable, every
// write after it is too, and a reopen holds everything that was acknowledged.
func TestNotDurableUnderSyncAlways(t *testing.T) {
	cfg := DefaultConfig(t.TempDir())
	cfg.SyncPolicy = "always"
	store := storage.NewStore()
	mgr, _, err := Open(store, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const acked = 5
	for i := 0; i < acked; i++ {
		mustPut(t, store, notDurableRecord(t, i))
	}
	breakLog(t, mgr)

	id, err := store.Put(notDurableRecord(t, acked))
	if !errors.Is(err, storage.ErrNotDurable) {
		t.Fatalf("Put over a broken log: id %d, err %v; want storage.ErrNotDurable", id, err)
	}
	if id != acked+1 || store.Count() != acked+1 {
		t.Fatalf("the mutation stays applied in memory: id %d, %d records; want id %d", id, store.Count(), acked+1)
	}
	// The log is poisoned: nothing after it is acknowledged either.
	if err := store.Annotate(1, admin, storage.Annotation{Text: "late"}); !errors.Is(err, storage.ErrNotDurable) {
		t.Fatalf("Annotate after the failure: %v, want storage.ErrNotDurable", err)
	}
	// The retry finds the record already public and logs nothing, but it is
	// not acknowledged either: the change it reports is not durable.
	for attempt := 1; attempt <= 2; attempt++ {
		if err := store.SetVisibility(1, admin, storage.VisibilityPublic); !errors.Is(err, storage.ErrNotDurable) {
			t.Fatalf("SetVisibility attempt %d after the failure: %v, want storage.ErrNotDurable", attempt, err)
		}
	}
	_, errs := store.PutBatch([]*storage.QueryRecord{notDurableRecord(t, 90), notDurableRecord(t, 91)})
	if len(errs) != 2 || !errors.Is(errs[0], storage.ErrNotDurable) || !errors.Is(errs[1], storage.ErrNotDurable) {
		t.Fatalf("PutBatch after the failure: %v, want storage.ErrNotDurable for both", errs)
	}
	if mgr.Err() == nil {
		t.Error("Err() is nil after a failed write")
	}
	if err := mgr.Close(); err == nil {
		t.Error("Close reported no error for a log that failed")
	}

	reopened := storage.NewStore()
	mgr2, rec, err := Open(reopened, cfg, nil)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer mgr2.Close()
	if reopened.Count() != acked {
		t.Fatalf("reopen holds %d records (%+v); exactly the %d acknowledged ones were promised", reopened.Count(), rec, acked)
	}
	if got, _ := reopened.Get(1, admin); got == nil || len(got.Annotations) != 0 || got.Visibility == storage.VisibilityPublic {
		t.Fatalf("reopen holds the unacknowledged annotation or visibility: %+v", got)
	}
}

// TestNotDurableUnderSyncInterval: interval acknowledges before the write
// reaches disk, so the write that hits the failure may be acknowledged — but
// once the committer has recorded it, every write is answered with
// ErrNotDurable instead of being silently dropped from the log.
func TestNotDurableUnderSyncInterval(t *testing.T) {
	cfg := DefaultConfig(t.TempDir())
	store := storage.NewStore()
	mgr, _, err := Open(store, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	mustPut(t, store, notDurableRecord(t, 0))
	breakLog(t, mgr)
	if _, err := store.Put(notDurableRecord(t, 1)); err != nil && !errors.Is(err, storage.ErrNotDurable) {
		t.Fatalf("the write that meets the failure: %v", err)
	}
	if err := mgr.log.waitWritten(); err == nil {
		t.Fatal("the committer wrote to a closed file")
	}

	if id, err := store.Put(notDurableRecord(t, 2)); !errors.Is(err, storage.ErrNotDurable) || id != 3 {
		t.Fatalf("Put after the recorded failure: id %d, err %v; want id 3 and storage.ErrNotDurable", id, err)
	}
	if err := store.SetVisibility(1, admin, storage.VisibilityPublic); !errors.Is(err, storage.ErrNotDurable) {
		t.Fatalf("SetVisibility after the recorded failure: %v, want storage.ErrNotDurable", err)
	}
	if rec, _ := store.Get(1, admin); rec == nil || rec.Visibility != storage.VisibilityPublic {
		t.Fatalf("the mutation stays applied in memory: %+v", rec)
	}
	// The retry changes nothing and logs nothing, and is refused all the same.
	if err := store.SetVisibility(1, admin, storage.VisibilityPublic); !errors.Is(err, storage.ErrNotDurable) {
		t.Fatalf("repeated SetVisibility after the recorded failure: %v, want storage.ErrNotDurable", err)
	}
	if mgr.Err() == nil {
		t.Error("Err() is nil after a failed write")
	}
}

// TestFramesDefineTheirShapesAfterAFailedWrite: a failed write may have
// dropped the frame that defined a shape or a sample, so once the manager has
// seen an append or fsync fail, every frame it encodes defines its shape and
// its sample inline, the ones the store already held included, and none
// refers to one by number. The directory the failure leaves behind recovers:
// no frame in it refers to a shape or sample no frame before it defined.
func TestFramesDefineTheirShapesAfterAFailedWrite(t *testing.T) {
	cfg := DefaultConfig(t.TempDir())
	cfg.SyncPolicy = "always"
	store := storage.NewStore()
	mgr, _, err := Open(store, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := func() (inline uint64, ref bool) {
		t.Helper()
		m, err := storage.DecodeMutation(mgr.encBuf)
		if err != nil {
			t.Fatal(err)
		}
		if m.Record.QueryShape == nil {
			return 0, true // a reference decodes with its shape unresolved
		}
		return m.Record.Number(), false
	}
	// lastSample is lastFrame for the sample every put below carries.
	lastSample := func() (inline uint64, ref bool) {
		t.Helper()
		m, err := storage.DecodeMutation(mgr.encBuf)
		if err != nil {
			t.Fatal(err)
		}
		if m.Record.Sample == nil {
			return 0, true
		}
		return m.Record.Sample.Number(), false
	}
	text := func(i int) *storage.QueryRecord {
		rec := notDurableRecord(t, i%2)
		rec.Sample = &storage.OutputSample{Columns: []string{"temp"}, Rows: [][]string{{fmt.Sprint(i % 2)}}, TotalRows: 1}
		return rec
	}
	mustPut(t, store, text(0))
	mustPut(t, store, text(0))
	if _, ref := lastFrame(); !ref {
		t.Fatal("a healthy log defined a live shape again")
	}
	if _, ref := lastSample(); !ref {
		t.Fatal("a healthy log defined a live sample again")
	}
	breakLog(t, mgr)
	if _, err := store.Put(text(1)); !errors.Is(err, storage.ErrNotDurable) {
		t.Fatalf("the write that meets the failure: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := store.Put(text(i)); !errors.Is(err, storage.ErrNotDurable) {
			t.Fatalf("put %d after the failure: %v", i, err)
		}
		if num, ref := lastFrame(); ref || num != uint64(1+i%2) {
			t.Fatalf("put %d after the failure: frame defines shape %d, refers: %v; want shape %d inline", i, num, ref, 1+i%2)
		}
		if num, ref := lastSample(); ref || num != uint64(1+i%2) {
			t.Fatalf("put %d after the failure: frame defines sample %d, refers: %v; want sample %d inline", i, num, ref, 1+i%2)
		}
	}
	repaired := text(1)
	if err := store.ReplaceText(1, repaired); !errors.Is(err, storage.ErrNotDurable) {
		t.Fatalf("replace-text after the failure: %v", err)
	}
	if num, ref := lastFrame(); ref || num != 2 {
		t.Fatalf("replace-text after the failure: frame defines shape %d, refers: %v; want shape 2 inline", num, ref)
	}
	mgr.Close()

	reopened := storage.NewStore()
	mgr2, rec, err := Open(reopened, cfg, nil)
	if err != nil {
		t.Fatalf("recovering the directory a failed write left: %v", err)
	}
	defer mgr2.Close()
	if reopened.Count() != 2 || rec.Replayed != 2 {
		t.Fatalf("recovered %d records from %d frames; want the 2 acknowledged ones", reopened.Count(), rec.Replayed)
	}
}

// TestNotDurableBackgroundFlushFailure: under the interval policy a write is
// acknowledged before its fsync, so an fsync the background flusher asks for
// may fail with no append after it. Log.Err and Manager.Err report it.
func TestNotDurableBackgroundFlushFailure(t *testing.T) {
	cfg := DefaultConfig(t.TempDir())
	store := storage.NewStore()
	mgr, _, err := Open(store, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The committer blocks after writing the record, before any fsync, until
	// the write is acknowledged; then the file breaks under it.
	release := make(chan struct{})
	var once sync.Once
	mgr.log.seqMu.Lock()
	mgr.log.beforeSync = func() {
		once.Do(func() {
			<-release
			mgr.log.ioMu.Lock()
			defer mgr.log.ioMu.Unlock()
			if err := mgr.log.file.Close(); err != nil {
				t.Error(err)
			}
		})
	}
	mgr.log.seqMu.Unlock()
	mustPut(t, store, notDurableRecord(t, 1))
	close(release)

	// The committer stops at its first failure.
	select {
	case <-mgr.log.commitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("no background fsync failed")
	}
	if mgr.log.Err() == nil {
		t.Fatal("Log.Err is nil after a failed background fsync")
	}
	if err := mgr.Err(); err != mgr.log.Err() {
		t.Fatalf("Manager.Err = %v, want the log's %v", err, mgr.log.Err())
	}
	if err := mgr.Close(); err == nil {
		t.Error("Close reported no error for a log whose flush failed")
	}
}
