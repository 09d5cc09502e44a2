package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/storage"
)

// writeFixedHistory logs one fixed history through a durable store in dir:
// repeated texts and answers, a batch, an annotation, a visibility change, a
// replace-text, a snapshot partway, then deletes that free a shape and a
// sample, puts that enter both again under new numbers, and a replace-text
// to a live shape. Every time is fixed, so the files it leaves are a
// function of the writer alone.
func writeFixedHistory(t *testing.T, dir string) {
	t.Helper()
	store := storage.NewStore()
	mgr, _, err := Open(store, testConfig(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Unix(1700000000, 0).UTC()
	answer := func(v string) *storage.OutputSample {
		return &storage.OutputSample{Columns: []string{"v"}, Rows: [][]string{{v}}, TotalRows: 1}
	}
	record := func(text, user string, sm *storage.OutputSample) *storage.QueryRecord {
		rec, err := storage.NewRecordFromSQL(text)
		if err != nil {
			t.Fatal(err)
		}
		at = at.Add(time.Minute)
		rec.User, rec.Group, rec.IssuedAt, rec.Sample = user, "limnology", at, sm
		rec.Stats = storage.RuntimeStats{ExecTime: time.Millisecond, ResultRows: 1, ExecutedAt: at}
		return rec
	}
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	const (
		cold   = "SELECT temp FROM WaterTemp WHERE temp < 15"
		lakes  = "SELECT lake, AVG(temp) FROM WaterTemp GROUP BY lake"
		cities = "SELECT city FROM CityLocations WHERE city IN (SELECT city FROM Cities)"
	)
	owner := storage.Principal{User: "ann", Groups: []string{"limnology"}}

	q1 := mustPut(t, store, record(cold, "ann", answer("a")))
	q2 := mustPut(t, store, record(cold, "bob", answer("a")))
	q3 := mustPut(t, store, record(lakes, "ann", answer("b")))
	q4 := mustPut(t, store, record(lakes, "bob", nil))
	batch := mustPutBatch(t, store, []*storage.QueryRecord{
		record(cold, "ann", answer("b")),
		record(cities, "ann", answer("c")),
	})
	check(store.Annotate(q1, owner, storage.Annotation{Text: "cold lakes", Fragment: "WaterTemp", At: at}))
	check(store.SetVisibility(q2, storage.Principal{User: "bob"}, storage.VisibilityPublic))
	check(store.ReplaceText(q4, record("SELECT name FROM Stations", "bob", nil)))
	if _, _, err := mgr.Snapshot(); err != nil {
		t.Fatal(err)
	}

	mustPut(t, store, record(cold, "bob", answer("a")))
	check(store.Delete(q3, owner))       // the last record of lakes
	check(store.Delete(batch[1], owner)) // the last of cities and of answer c
	mustPut(t, store, record(cities, "bob", answer("c")))
	check(store.ReplaceText(q4, record(cold, "bob", nil))) // frees Stations
	check(store.UpdateStats(q1, storage.RuntimeStats{ExecTime: 2 * time.Millisecond, ResultRows: 3, ExecutedAt: at}))
	check(store.MarkInvalid(q2, "schema drift"))
	check(mgr.Close())
}

// TestWriterMatchesParentBytes: for one fixed history, the snapshot this
// build writes is byte for byte the one the build before the shared
// dictionary wrote (testdata/parent_written, never regenerated), and so are
// the log's frames. The parent kept them in one segment; this build ends a
// segment at the snapshot's sequence, so the same bytes lie in two files, cut
// where the frames past the snapshot begin.
func TestWriterMatchesParentBytes(t *testing.T) {
	const golden = "testdata/parent_written"
	dir := t.TempDir()
	writeFixedHistory(t, dir)
	const snap, seq = "snapshot-00000000000000000009.snap", 9
	files := map[string][2][]string{ // name: this build's files, the parent's
		snap:      {{snap}, {snap}},
		"the log": {{segmentName(1), segmentName(seq + 1)}, {segmentName(1)}},
	}
	for name, f := range files {
		var got, want []byte
		for _, file := range f[0] {
			got = append(got, readFile(t, filepath.Join(dir, file))...)
		}
		for _, file := range f[1] {
			want = append(want, readFile(t, filepath.Join(golden, file))...)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Errorf("%s: %d bytes differ from the parent's %d from byte %d on", name, len(got), len(want), i)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 3 {
		t.Fatalf("the history left %d files (%v), want %s and two segments", len(entries), err, snap)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
