package wal

import (
	"bytes"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
)

// TestCompactRacingAppendsLeavesNoCoveredFrame: writers put records while
// the store compacts, again and again. Whenever Compact returns S, no segment
// on disk begins at or before S: the snapshot's sequence ended the segment
// the committer was writing, and compaction removed it. So a follower's tail
// from S (and recovery's replay, the same walk) reads every byte of the log
// and skips none, and the directory reopens to the store that wrote it.
func TestCompactRacingAppendsLeavesNoCoveredFrame(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SegmentBytes = 4 << 10
	store := storage.NewStore()
	mgr, _, err := Open(store, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	put := func(user string, i int) error {
		rec, err := storage.NewRecordFromSQL(fmt.Sprintf("SELECT WaterTemp.lake FROM WaterTemp WHERE WaterTemp.temp < %d", i%40))
		if err != nil {
			return err
		}
		rec.User = user
		_, err = store.Put(rec)
		return err
	}
	// Each writer puts a fixed number of records, so the store (and with it
	// each compaction's snapshot) stays small however the goroutines are
	// scheduled.
	const writers, perWriter = 3, 1500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := put(fmt.Sprintf("user%d", w), i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	written := make(chan struct{})
	go func() { wg.Wait(); close(written) }()
	var last uint64
	for racing := true; racing && !t.Failed(); {
		select {
		case <-written:
			racing = false
		default:
		}
		_, seq, _, err := mgr.Compact()
		if err != nil {
			t.Error(err)
			break
		}
		segs, err := listSegments(dir)
		if err != nil || len(segs) == 0 || segs[0].FirstSeq <= seq {
			t.Errorf("after compacting to %d the log is %+v (%v): a segment holds covered frames", seq, segs, err)
		}
		last = seq
	}
	<-written
	for i := 0; i < 5 && !t.Failed(); i++ {
		if err := put("tail", i); err != nil {
			t.Error(err)
		}
	}
	if t.Failed() {
		mgr.Close()
		return
	}

	var tail bytes.Buffer
	if _, _, err := mgr.ReadTail(last, 1<<40, &tail); err != nil {
		t.Fatal(err)
	}
	info, err := mgr.Info()
	if err != nil {
		t.Fatal(err)
	}
	var logBytes int64
	for _, seg := range info.Segments {
		logBytes += seg.Bytes
	}
	if int64(tail.Len()) != logBytes || info.LastSeq <= last {
		t.Fatalf("the tail past %d is %d bytes of a %d-byte log (%+v)", last, tail.Len(), logBytes, info.Segments)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := storage.NewStore()
	mgr, rec, err := Open(reopened, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if rec.SnapshotSeq != last || uint64(rec.Replayed) != info.LastSeq-last {
		t.Fatalf("recovery %+v, want the snapshot at %d and the %d records past it", rec, last, info.LastSeq-last)
	}
	assertStoresEqual(t, store, reopened)
}

// TestCompactSurvivesCrashAtEachStep: a compaction of an idle log leaves,
// step by step, the directory it started from; then the new snapshot's
// temporary file beside it, then the snapshot in place (its seal did no
// I/O); then a fresh, empty segment named one past the snapshot; then fewer
// and fewer covered segments, then fewer and fewer older snapshots. A crash
// after any step leaves one of these directories. Each is built here from
// files and must reopen to the store the compaction captured. Before the
// fresh segment an open changes nothing; from it on, the open finishes the
// compaction and leaves exactly the compacted directory. Once the snapshot
// is in place, no open replays a record.
func TestCompactSurvivesCrashAtEachStep(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SegmentBytes = 4 << 10
	store := storage.NewStore()
	mgr, _, err := Open(store, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	buildStore(t, store, 30)
	if _, _, err := mgr.Snapshot(); err != nil {
		t.Fatal(err)
	}
	buildStore(t, store, 20)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	before := readFiles(t, dir)
	if segs, _ := listSegments(dir); len(segs) < 3 {
		t.Fatalf("the log has %d segments; the test needs several", len(segs))
	}
	want, _ := openDoc(t, dir)

	if mgr, _, err = Open(storage.NewStore(), cfg, nil); err != nil {
		t.Fatal(err)
	}
	path, seq, _, err := mgr.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	after := readFiles(t, dir)
	snap, fresh := filepath.Base(path), segmentName(seq+1)
	if names := sortedNames(after); !slices.Equal(names, []string{snap, fresh}) || len(after[fresh]) != 0 {
		t.Fatalf("the compaction left %v, want %s and an empty %s", names, snap, fresh)
	}

	var steps []map[string][]byte
	state := maps.Clone(before)
	step := func(change func()) {
		change()
		steps = append(steps, maps.Clone(state))
	}
	step(func() {})
	step(func() { state[snap+".tmp"] = after[snap][:len(after[snap])/2] })
	step(func() { delete(state, snap+".tmp"); state[snap] = after[snap] })
	rotated := len(steps)
	step(func() { state[fresh] = nil })
	for _, prefix := range []string{segmentPrefix, snapshotPrefix} {
		for _, name := range sortedNames(before) {
			if strings.HasPrefix(name, prefix) {
				step(func() { delete(state, name) })
			}
		}
	}
	if !maps.EqualFunc(state, after, bytes.Equal) {
		t.Fatalf("the last step leaves %v, not the compacted directory", sortedNames(state))
	}
	for i, files := range steps {
		dir := writeFiles(t, files)
		if got, _ := openDoc(t, dir); got != want {
			t.Fatalf("after step %d of %d (%v) the store differs %s", i, len(steps), sortedNames(files), firstDiff(want, got))
		}
		opened := readFiles(t, dir)
		if i >= rotated && !maps.EqualFunc(opened, after, bytes.Equal) {
			t.Fatalf("after step %d the directory holds %v, want %v", i, sortedNames(opened), sortedNames(after))
		}
		if i < rotated && !maps.EqualFunc(opened, files, bytes.Equal) {
			t.Fatalf("after step %d opening changed the directory: %v, then %v", i, sortedNames(files), sortedNames(opened))
		}
		if got, info := openDoc(t, dir); got != want || i >= rotated-1 && info.Replayed != 0 {
			t.Fatalf("after step %d a second open replayed %d records", i, info.Replayed)
		}
	}
}
