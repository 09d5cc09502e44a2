package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/storage"
)

// Payloads only older builds logged, as they wrote them (FORMAT.md,
// "Upgraded at open").

// olderPut is a put whose record carries its shape's fields interleaved with
// its own (parentRecordBody).
func olderPut(rec *storage.QueryRecord) []byte {
	return append([]byte{storage.PayloadFormat, 1, 1 << 1}, parentRecordBody(rec)...)
}

// olderReplaceText is a replace-text of query id carrying rec the same way.
func olderReplaceText(id storage.QueryID, rec *storage.QueryRecord) []byte {
	p := binary.AppendVarint([]byte{storage.PayloadFormat, 13, 1 | 1<<1}, int64(id))
	return append(p, parentRecordBody(rec)...)
}

// olderSetSample moves query id to sample sm (nil clears its sample).
func olderSetSample(id storage.QueryID, sm *storage.OutputSample) []byte {
	if sm == nil {
		return binary.AppendVarint([]byte{storage.PayloadFormat, 11, 1}, int64(id))
	}
	p := binary.AppendUvarint([]byte{storage.PayloadFormat, 11}, 1|1<<9)
	return appendSampleBody(binary.AppendVarint(p, int64(id)), sm)
}

// olderSetQuality stores a quality score for query id.
func olderSetQuality(id storage.QueryID, score float64) []byte {
	p := binary.AppendUvarint([]byte{storage.PayloadFormat, 12}, 1|1<<10)
	p = binary.AppendVarint(p, int64(id))
	return binary.LittleEndian.AppendUint64(p, math.Float64bits(score))
}

// olderAssignSession files query id under a session.
func olderAssignSession(id storage.QueryID, session int64) []byte {
	p := binary.AppendUvarint([]byte{storage.PayloadFormat, 5}, 1|1<<4)
	return binary.AppendVarint(binary.AppendVarint(p, int64(id)), session)
}

// olderAddEdge adds a session edge between two queries.
func olderAddEdge(from, to storage.QueryID, diff string) []byte {
	p := binary.AppendUvarint([]byte{storage.PayloadFormat, 6}, 1<<5)
	p = binary.AppendVarint(binary.AppendVarint(p, int64(from)), int64(to))
	p = binary.AppendVarint(p, 2)
	return append(binary.AppendUvarint(p, uint64(len(diff))), diff...)
}

// appendSampleBody appends an output sample's fields, every string a
// literal.
func appendSampleBody(b []byte, sm *storage.OutputSample) []byte {
	strs := func(ss []string) {
		if ss == nil {
			b = append(b, 0)
			return
		}
		b = binary.AppendUvarint(b, uint64(len(ss))+1)
		for _, s := range ss {
			b = append(binary.AppendUvarint(b, uint64(len(s))<<1), s...)
		}
	}
	strs(sm.Columns)
	if sm.Rows == nil {
		b = append(b, 0)
	} else {
		b = binary.AppendUvarint(b, uint64(len(sm.Rows))+1)
		for _, row := range sm.Rows {
			strs(row)
		}
	}
	b = binary.AppendVarint(b, int64(sm.TotalRows))
	if sm.Truncated {
		return append(b, 1)
	}
	return append(b, 0)
}

// olderPayload reports whether p is a payload only an older build wrote: one
// of its kinds, or a mutation with one of its fields.
func olderPayload(p []byte) bool {
	if len(p) < 2 || p[0] != storage.PayloadFormat {
		return false
	}
	switch kind := p[1]; {
	case kind == 5 || kind == 6 || kind == 11 || kind == 12 || kind >= 0x40 && kind <= 0x44:
		return true
	case kind == 0 || kind > 13:
		return false
	}
	mask, n := binary.Uvarint(p[2:])
	return n > 0 && mask>>12 == 0 && mask&(1<<1|1<<4|1<<5|1<<9|1<<10) != 0
}

// olderFiles is a data directory as an older build left it: a snapshot at
// sequence 4 with a checkpoint section, whose records carry their shapes,
// and one segment whose first four frames it covers. After them the segment
// holds puts whose records carry their shapes, set-samples onto a new answer,
// onto a held one and onto none, session, edge and quality frames, and, in
// between, frames this build writes too.
func olderFiles(t testing.TB) map[string][]byte {
	src := storage.NewStore()
	buildStore(t, src, 6) // queries 1 to 6 but 3
	st := src.CaptureState(nil)
	var snap bytes.Buffer
	writeOlderSnapshotStream(t, &snap, 4, st, testSections()[:1])

	fresh := walRecord(t, "SELECT Stars.name FROM Stars WHERE Stars.mag < 4", "user1")
	fresh.ID, fresh.Sample = 9, st.Records[0].Sample
	repeat := st.Records[1].Clone()
	repeat.ID = 10
	retext := walRecord(t, "SELECT Stars.name FROM Stars", "user2")
	annotate, err := (&storage.Mutation{Op: storage.OpAnnotate, ID: 4, Annotation: &storage.Annotation{Author: "user0", Text: "late"}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	del, err := (&storage.Mutation{Op: storage.OpDelete, ID: 5}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var seg []byte
	for i, p := range [][]byte{
		olderSetQuality(1, 0.5), olderSetQuality(2, 0.5), olderAssignSession(1, 1), olderAddEdge(1, 2, "+a"),
		olderPut(fresh), olderPut(repeat),
		olderSetSample(2, walSample("new")), olderSetSample(10, st.Records[0].Sample), olderSetSample(9, nil),
		olderAssignSession(9, 2), olderAddEdge(9, 10, "-attr b"), olderSetQuality(10, 0.25),
		annotate, del, olderReplaceText(6, retext),
	} {
		seg = appendFrame(seg, uint64(i+1), p)
	}
	return map[string][]byte{snapshotName(4): snap.Bytes(), segmentName(1): seg}
}

// upgradeSources are the older directories the upgrade tests start from:
// olderFiles, and the directories older builds wrote that the core tests
// open.
func upgradeSources(t testing.TB) map[string]map[string][]byte {
	out := map[string]map[string][]byte{"built": olderFiles(t)}
	for _, name := range []string{"parent_datadir", "parent_quality_datadir", "parent_shape_datadir", "parent_sample_datadir"} {
		out[name] = readFiles(t, filepath.Join("..", "core", "testdata", name))
	}
	return out
}

func sortedNames[V any](files map[string]V) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func readFiles(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

func writeFiles(t testing.TB, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// upgradeDoc renders a store for comparing upgrades: every record and the ID
// counter, both number counters, and each record's shape and sample number.
func upgradeDoc(t testing.TB, s *storage.Store) string {
	t.Helper()
	st := s.CaptureState(nil)
	var b strings.Builder
	b.WriteString(stateJSON(t, st))
	fmt.Fprintf(&b, "\nshape counter %d, sample counter %d\n", st.NextShape, st.NextSample)
	for _, rec := range st.Records {
		var sm uint64
		if rec.Sample != nil {
			sm = rec.Sample.Number()
		}
		fmt.Fprintf(&b, "query %d: shape %d, sample %d\n", rec.ID, rec.Number(), sm)
	}
	return b.String()
}

// openDoc opens dir, renders the store it recovered and closes it again.
func openDoc(t testing.TB, dir string) (string, *RecoveryInfo) {
	t.Helper()
	store := storage.NewStore()
	mgr, info, err := Open(store, testConfig(dir), nil)
	if err != nil {
		t.Fatalf("opening %s: %v", dir, err)
	}
	doc := upgradeDoc(t, store)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return doc, info
}

// assertCurrentFormat checks that dir holds only what this build writes:
// snapshots that verify and decode, and segments every frame of which
// decodes, with this build's readers.
func assertCurrentFormat(t testing.TB, dir string) {
	t.Helper()
	for name := range readFiles(t, dir) {
		path := filepath.Join(dir, name)
		var err error
		switch {
		case strings.HasPrefix(name, snapshotPrefix) && strings.HasSuffix(name, snapshotSuffix):
			if _, err = VerifySnapshot(path); err == nil {
				_, err = latestDecoded(dir)
			}
		case strings.HasPrefix(name, segmentPrefix) && strings.HasSuffix(name, segmentSuffix):
			_, err = readSegment(path, func(seq uint64, p []byte) error {
				_, err := storage.DecodeMutation(p)
				return err
			})
		default:
			err = errors.New("not a file of the log")
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestUpgradeSurvivesCrashAtEachStep: the upgrade leaves, step by step, the
// older files and a fresh segment; then the new snapshot's temporary file
// beside them, then the snapshot in place; then fewer and fewer older
// segments, then fewer and fewer older snapshots. A crash after any step
// leaves one of these directories. Each is built here from files — the
// upgraded directory and the older files — and must reopen to the store the
// first upgrade served, leave the upgraded directory's files and nothing
// else, all in this build's format, and reopen again replaying nothing.
func TestUpgradeSurvivesCrashAtEachStep(t *testing.T) {
	for name, older := range upgradeSources(t) {
		t.Run(name, func(t *testing.T) {
			dir := writeFiles(t, older)
			want, _ := openDoc(t, dir)
			upgraded := readFiles(t, dir)
			names := sortedNames(upgraded)
			if len(names) != 2 || len(upgraded[names[1]]) != 0 || !strings.HasPrefix(names[0], snapshotPrefix) || !strings.HasPrefix(names[1], segmentPrefix) {
				t.Fatalf("the upgrade left %v, want a snapshot and an empty segment", names)
			}
			snap, fresh := names[0], names[1]
			var steps []map[string][]byte
			state := maps.Clone(older)
			step := func(change func()) {
				change()
				steps = append(steps, maps.Clone(state))
			}
			step(func() {})
			step(func() { state[fresh] = nil })
			step(func() { state[snap+".tmp"] = upgraded[snap][:len(upgraded[snap])/2] })
			step(func() { delete(state, snap+".tmp"); state[snap] = upgraded[snap] })
			for _, prefix := range []string{segmentPrefix, snapshotPrefix} {
				for _, name := range sortedNames(older) {
					if strings.HasPrefix(name, prefix) && name != snap && name != fresh {
						step(func() { delete(state, name) })
					}
				}
			}
			if !maps.EqualFunc(state, upgraded, bytes.Equal) {
				t.Fatalf("the last step leaves %v, not the upgraded directory", sortedNames(state))
			}
			for i, files := range steps {
				dir := writeFiles(t, files)
				if got, _ := openDoc(t, dir); got != want {
					t.Fatalf("after step %d of %d (%v) the store differs %s", i, len(steps), sortedNames(files), firstDiff(want, got))
				}
				if got := sortedNames(readFiles(t, dir)); !slices.Equal(got, names) {
					t.Fatalf("after step %d the directory holds %v, want %v", i, got, names)
				}
				assertCurrentFormat(t, dir)
				if got, info := openDoc(t, dir); got != want || info.Replayed != 0 {
					t.Fatalf("after step %d a second open replayed %d records", i, info.Replayed)
				}
			}
		})
	}
}

func firstDiff(want, got string) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	return fmt.Sprintf("at byte %d\n got: …%.200s\nwant: …%.200s", i, got[max(0, i-60):], want[max(0, i-60):])
}

// TestCurrentDirectoryIsNotUpgraded: a directory this build wrote opens
// without a byte on disk changing: no upgrade runs, and the end of an
// interrupted upgrade does not take it for one. Two snapshots that no
// compaction followed (backups) leave segments and a snapshot that the
// newest covers, which an upgrade's end would remove; a compacted directory
// with a tail after its snapshot is left as it is too.
func TestCurrentDirectoryIsNotUpgraded(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SegmentBytes = 4 << 10
	store := storage.NewStore()
	mgr, _, err := Open(store, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	reopen := func(compact bool) {
		t.Helper()
		buildStore(t, store, 12)
		for i := 0; i < 2; i++ {
			if _, _, err := mgr.Snapshot(); err != nil {
				t.Fatal(err)
			}
			buildStore(t, store, 3)
		}
		if compact {
			if _, _, _, err := mgr.Compact(); err != nil {
				t.Fatal(err)
			}
			buildStore(t, store, 3)
		}
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
		before := readFiles(t, dir)
		store = storage.NewStore()
		var info *RecoveryInfo
		if mgr, info, err = Open(store, cfg, nil); err != nil || info.Replayed == 0 || info.SnapshotSeq == 0 {
			t.Fatalf("recovery %+v, %v; want a snapshot and a tail", info, err)
		}
		if after := readFiles(t, dir); !maps.EqualFunc(before, after, bytes.Equal) || !compact && len(before) < 4 {
			t.Fatalf("opening changed the directory: %v, then %v", sortedNames(before), sortedNames(after))
		}
	}
	reopen(false)
	reopen(true)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOlderFormatIsRefusedByEveryOtherReader: the log decoder (WAL replay
// outside Open, and a follower's tail), the snapshot stream (a follower's
// bootstrap), the verifier and latestSnapshot refuse each older payload by
// name, storage.ErrOlderFormat, and Store.Apply has no op for one.
func TestOlderFormatIsRefusedByEveryOtherReader(t *testing.T) {
	rec := fuzzRecords(t)[0]
	rec.ID = 1
	for name, p := range map[string][]byte{
		"put":            olderPut(rec),
		"replace-text":   olderReplaceText(1, rec),
		"set-sample":     olderSetSample(1, walSample("x")),
		"set-sample nil": olderSetSample(1, nil),
		"set-quality":    olderSetQuality(1, 0.5),
		"assign-session": olderAssignSession(1, 3),
		"add-edge":       olderAddEdge(1, 2, "+a"),
	} {
		if !olderPayload(p) {
			t.Fatalf("%s: not classified as older", name)
		}
		if m, err := storage.DecodeMutation(p); m != nil || !errors.Is(err, storage.ErrOlderFormat) {
			t.Errorf("DecodeMutation(%s) = %v, %v", name, m, err)
		}
		err := ReadFrames(bytes.NewReader(encodeFrame(1, p)), func(_ uint64, p []byte) error {
			_, err := storage.DecodeMutation(p)
			return err
		})
		if !errors.Is(err, storage.ErrOlderFormat) {
			t.Errorf("the replication tail's %s: %v", name, err)
		}
		if older, err := storage.NewStore().ApplyPayload(p); !older || err != nil && !errors.Is(err, storage.ErrNotFound) {
			t.Errorf("recovery's ApplyPayload(%s) = %v, %v", name, older, err)
		}
	}
	if err := storage.NewStore().Apply(&storage.Mutation{Op: "set-sample", ID: 1}); err == nil {
		t.Error("Store.Apply took a set-sample")
	}
	for _, src := range []string{"parent_datadir", "parent_sample_datadir"} {
		dir := writeFiles(t, readFiles(t, filepath.Join("..", "core", "testdata", src)))
		snaps, err := listSnapshots(dir)
		if err != nil || len(snaps) != 1 {
			t.Fatalf("%s: %v, %v", src, snaps, err)
		}
		path := filepath.Join(dir, snaps[0].Name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshot(bytes.NewReader(raw)); !errors.Is(err, storage.ErrOlderFormat) {
			t.Errorf("%s: ReadSnapshot: %v", src, err)
		}
		if _, err := VerifySnapshot(path); !errors.Is(err, storage.ErrOlderFormat) || !strings.Contains(err.Error(), snaps[0].Name) {
			t.Errorf("%s: VerifySnapshot: %v", src, err)
		}
		if _, err := latestDecoded(dir); !errors.Is(err, storage.ErrOlderFormat) || !strings.Contains(err.Error(), snaps[0].Name) {
			t.Errorf("%s: latestDecoded: %v", src, err)
		}
		if _, _, ok, err := OpenLatestSnapshot(dir); ok || !errors.Is(err, storage.ErrOlderFormat) {
			t.Errorf("%s: OpenLatestSnapshot = ok %v, %v", src, ok, err)
		}
		if snap, err := recoverSnapshot(dir); err != nil || !snap.older {
			t.Errorf("%s: recovery's reader: %v", src, err)
		}
	}
}

// TestOnlyOpenReadsOlderFormat is the import check CI makes with `go list
// -deps`, for calls: outside their own files (upgrade.go of internal/storage
// and internal/wal), the readers of what older builds wrote are named in the
// body of wal.Open and nowhere else in the module's non-test code.
func TestOnlyOpenReadsOlderFormat(t *testing.T) {
	older := map[string]bool{
		// internal/storage
		"ApplyPayload": true, "DecodeOlderSnapshotHeader": true, "DecodeOlderRecordChunk": true, "OlderChunkCount": true,
		"parentRecord": true,
		// internal/wal
		"recoverSnapshot": true, "readOlderSnapshot": true, "upgrade": true,
	}
	root := filepath.Join("..", "..")
	home := map[string]bool{
		filepath.Join(root, "internal", "storage", "upgrade.go"): true,
		filepath.Join(root, "internal", "wal", "upgrade.go"):     true,
	}
	open := filepath.Join(root, "internal", "wal", "manager.go")
	seen := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || home[path] {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || !older[id.Name] {
					return true
				}
				if path == open && fn != nil && fn.Recv == nil && fn.Name.Name == "Open" {
					seen[id.Name]++
					return true
				}
				t.Errorf("%s names %s, a reader of older builds' payloads, outside wal.Open", path, id.Name)
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"recoverSnapshot", "ApplyPayload", "upgrade"} {
		if seen[want] == 0 {
			t.Errorf("wal.Open no longer names %s; the check no longer sees the upgrade's entry points", want)
		}
	}
}

// FuzzUpgrade: a directory of one older snapshot and one segment, both
// fuzzed, either fails to open, or opens upgraded: what is left on disk is
// in this build's format — any other file is one no reader takes at all —
// and reopening it recovers the store the upgrade served. The seeds are the
// two smallest older directories: each new input the fuzzer keeps is
// minimized one open at a time.
func FuzzUpgrade(f *testing.F) {
	sources := upgradeSources(f)
	for _, name := range []string{"built", "parent_sample_datadir"} {
		files := sources[name]
		var snap, seg []byte
		for file, b := range files {
			if strings.HasPrefix(file, snapshotPrefix) {
				snap = b
			} else {
				seg = b
			}
		}
		f.Add(snap, seg)
	}
	f.Fuzz(func(t *testing.T, snap, seg []byte) {
		files := map[string][]byte{segmentName(1): seg}
		if len(snap) > 0 {
			seq := uint64(1)
			if s, _, _, err := newFrameReader(bytes.NewReader(snap)).next(); err == nil {
				seq = s
			}
			files[snapshotName(seq)] = snap
		}
		dir := writeFiles(t, files)
		store := storage.NewStore()
		mgr, _, err := Open(store, testConfig(dir), nil)
		if err != nil {
			return
		}
		want := upgradeDoc(t, store)
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
		for name := range readFiles(t, dir) {
			path := filepath.Join(dir, name)
			switch {
			case strings.HasPrefix(name, snapshotPrefix):
				if _, err := VerifySnapshot(path); err != nil {
					if _, oerr := readSnapshotFile(path, readOlderSnapshot); oerr == nil {
						t.Fatalf("%s, an older build's snapshot, survived the upgrade", name)
					}
				}
			case strings.HasPrefix(name, segmentPrefix):
				if _, err := readSegment(path, func(_ uint64, p []byte) error {
					_, err := storage.DecodeMutation(p)
					return err
				}); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			default:
				t.Fatalf("the open left %s", name)
			}
		}
		if got, _ := openDoc(t, dir); got != want {
			t.Fatalf("the reopened store differs %s", firstDiff(want, got))
		}
	})
}
