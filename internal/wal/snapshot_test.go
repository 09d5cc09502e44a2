package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
)

// section is one derived-state checkpoint section as older builds wrote it
// after the record chunks of a snapshot.
type section struct {
	name    string
	version int
	data    []byte
}

func testSections() []section {
	return []section{
		{"stats", 2, []byte("stats-checkpoint")},
		{"miner-feed", 3, []byte{}},
		{"sessions", 2, bytes.Repeat([]byte{0xAB}, 512)},
	}
}

// appendSectionPart encodes one part of an older build's checkpoint section:
// left says how many more parts of the section follow.
func appendSectionPart(dst []byte, name string, version, left int, data []byte) []byte {
	dst = append(dst, storage.PayloadFormat, 0x43)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	dst = binary.AppendUvarint(dst, uint64(version))
	dst = binary.AppendUvarint(dst, uint64(left))
	return append(dst, data...)
}

// writeOlderSnapshotStream writes st as an older build did: a header that
// announces the sections, record chunks whose records carry their shapes
// (parentRecordBody), then each section cut into parts of at most
// snapshotChunkBytes.
func writeOlderSnapshotStream(t testing.TB, w io.Writer, seq uint64, st *storage.StoreState, sections []section) SnapshotInfo {
	t.Helper()
	info := SnapshotInfo{Seq: seq, Records: len(st.Records)}
	header := binary.AppendVarint([]byte{storage.PayloadFormat, 0x40}, int64(st.NextID))
	header = binary.AppendUvarint(header, uint64(len(st.Records)))
	header = binary.AppendUvarint(header, 0)
	header = binary.AppendUvarint(header, uint64(len(sections)))
	out := appendFrame(nil, seq, header)
	info.Frames++
	for recs := st.Records; len(recs) > 0; {
		n, size := 0, 0
		for ; n < len(recs) && (n == 0 || size < snapshotChunkBytes); n++ {
			size += len(parentRecordBody(recs[n]))
		}
		out = appendFrame(out, seq, parentRecordChunk(recs[:n]))
		info.Frames++
		recs = recs[n:]
	}
	for _, sec := range sections {
		parts := max(1, (len(sec.data)+snapshotChunkBytes-1)/snapshotChunkBytes)
		for data := sec.data; parts > 0; parts-- {
			n := min(len(data), snapshotChunkBytes)
			out = appendFrame(out, seq, appendSectionPart(nil, sec.name, sec.version, parts-1, data[:n]))
			info.Frames++
			data = data[n:]
		}
	}
	if _, err := w.Write(out); err != nil {
		t.Fatal(err)
	}
	info.Bytes = int64(len(out))
	return info
}

// parentRecordChunk is a record chunk as an older build wrote it, holding
// recs.
func parentRecordChunk(recs []*storage.QueryRecord) []byte {
	chunk := binary.LittleEndian.AppendUint32([]byte{storage.PayloadFormat, 0x41}, uint32(len(recs)))
	for _, rec := range recs {
		body := parentRecordBody(rec)
		chunk = append(binary.AppendUvarint(chunk, uint64(len(body))), body...)
	}
	return chunk
}

// parentRecordBody is a record as builds before shape numbers wrote it into
// a snapshot: the shape's fields and the record's own interleaved, a session
// slot and a quality slot, every string a literal (the reader's string table
// also takes repeats written out).
func parentRecordBody(rec *storage.QueryRecord) []byte {
	var b []byte
	str := func(s string) { b = append(binary.AppendUvarint(b, uint64(len(s))<<1), s...) }
	strs := func(ss []string) {
		if ss == nil {
			b = append(b, 0)
			return
		}
		b = binary.AppendUvarint(b, uint64(len(ss))+1)
		for _, s := range ss {
			str(s)
		}
	}
	count := func(n int, isNil bool) {
		if isNil {
			b = append(b, 0)
		} else {
			b = binary.AppendUvarint(b, uint64(n)+1)
		}
	}
	when := func(at time.Time) {
		_, off := at.Zone()
		b = binary.AppendVarint(b, at.Unix())
		b = binary.AppendUvarint(b, uint64(at.Nanosecond()))
		b = binary.AppendVarint(b, int64(off))
	}
	boolean := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = binary.AppendVarint(b, int64(rec.ID))
	str(rec.Text)
	str(rec.Canonical)
	str(rec.Template)
	b = binary.LittleEndian.AppendUint64(b, rec.Fingerprint)
	b = binary.LittleEndian.AppendUint64(b, rec.ExactHash)
	str(rec.User)
	str(rec.Group)
	b = binary.AppendVarint(b, int64(rec.Visibility))
	when(rec.IssuedAt)
	strs(rec.Tables)
	count(len(rec.Attributes), rec.Attributes == nil)
	for _, a := range rec.Attributes {
		str(a.Attr)
		str(a.Rel)
		str(a.Clause)
	}
	count(len(rec.Predicates), rec.Predicates == nil)
	for _, p := range rec.Predicates {
		str(p.Attr)
		str(p.Rel)
		str(p.Op)
		str(p.Const)
		boolean(p.IsJoin)
		str(p.RightRel)
		str(p.RightAttr)
	}
	strs(rec.Aggregates)
	strs(rec.GroupBy)
	strs(rec.Features)
	st := rec.Stats
	b = binary.AppendVarint(b, int64(st.ExecTime))
	b = binary.AppendVarint(b, int64(st.ResultRows))
	b = binary.AppendVarint(b, int64(st.ResultColumns))
	str(st.Error)
	b = binary.AppendVarint(b, st.SchemaVersion)
	when(st.ExecutedAt)
	boolean(rec.Sample != nil)
	if s := rec.Sample; s != nil {
		b = appendSampleBody(b, s)
	}
	count(len(rec.Annotations), rec.Annotations == nil)
	for _, a := range rec.Annotations {
		str(a.Author)
		str(a.Text)
		str(a.Fragment)
		when(a.At)
	}
	b = append(b, 0) // the session slot
	var flags byte
	if rec.Valid {
		flags |= 1
	}
	if rec.StatsStale {
		flags |= 2
	}
	b = append(b, flags)
	str(rec.InvalidReason)
	return binary.LittleEndian.AppendUint64(b, 0) // the quality slot
}

// writeOlderSnapshot is writeOlderSnapshotStream into a snapshot file of dir.
func writeOlderSnapshot(t testing.TB, dir string, seq uint64, st *storage.StoreState, sections []section) (string, SnapshotInfo) {
	t.Helper()
	var buf bytes.Buffer
	info := writeOlderSnapshotStream(t, &buf, seq, st, sections)
	path := filepath.Join(dir, snapshotName(seq))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	info.Name = filepath.Base(path)
	return path, info
}

// testState is a small store state with records and a deletion hole, as the
// snapshot writer captures it.
func testState(t testing.TB, n int) *storage.StoreState {
	t.Helper()
	store := storage.NewStore()
	buildStore(t, store, n)
	return store.CaptureState(nil)
}

// latestDecoded reads the newest readable snapshot in dir, decoded, as
// recovery does for this build's snapshots.
func latestDecoded(dir string) (*Snapshot, error) {
	return latestSnapshot(dir, func(path string) (*Snapshot, error) { return readSnapshotFile(path, decodeSnapshot) })
}

func stateJSON(t testing.TB, st *storage.StoreState) string {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// frameEnds returns the byte offset at which each frame of a file ends.
func frameEnds(t testing.TB, raw []byte) []int {
	t.Helper()
	var ends []int
	for off := 0; off < len(raw); {
		if len(raw)-off < headerBytes {
			t.Fatalf("file ends inside a frame header at %d", off)
		}
		off += headerBytes + int(binary.LittleEndian.Uint32(raw[off:]))
		ends = append(ends, off)
	}
	return ends
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if snap, err := latestDecoded(dir); err != nil || snap != nil {
		t.Fatalf("latestDecoded on an empty dir = %v, %v", snap, err)
	}
	st := testState(t, 24)
	path, info, err := WriteSnapshot(dir, 99, st)
	if err != nil {
		t.Fatal(err)
	}
	// header, one shape chunk and one record chunk, and no section.
	if info.Records != len(st.Records) || info.Frames != 3 {
		t.Fatalf("written info = %+v", info)
	}
	snap, err := latestDecoded(dir)
	if err != nil || snap == nil {
		t.Fatalf("latestDecoded = %v, %v", snap, err)
	}
	if snap.Seq != 99 || stateJSON(t, snap.State) != stateJSON(t, st) {
		t.Fatalf("state changed in the snapshot (seq %d)", snap.Seq)
	}
	verified, err := VerifySnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := os.Stat(path)
	if verified.Frames != info.Frames || verified.Records != info.Records || verified.Bytes != fi.Size() || info.Bytes != fi.Size() {
		t.Fatalf("verified %+v, written %+v, file %d bytes", verified, info, fi.Size())
	}

	// The strict stream reader agrees, and an empty store round-trips too.
	f, seq, ok, err := OpenLatestSnapshot(dir)
	if err != nil || !ok || seq != 99 {
		t.Fatalf("OpenLatestSnapshot = seq %d, ok %v, err %v", seq, ok, err)
	}
	streamed, err := ReadSnapshot(f)
	f.Close()
	if err != nil || stateJSON(t, streamed.State) != stateJSON(t, st) {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if _, _, err := WriteSnapshot(dir, 100, &storage.StoreState{NextID: 7}); err != nil {
		t.Fatal(err)
	}
	if snap, err := latestDecoded(dir); err != nil || snap.Seq != 100 || snap.State.NextID != 7 || len(snap.State.Records) != 0 || snap.Info.Frames != 1 {
		t.Fatalf("empty snapshot = %+v, %v", snap, err)
	}
	if removed, err := RemoveSnapshotsBefore(dir, 100); err != nil || removed != 1 {
		t.Fatalf("RemoveSnapshotsBefore = %d, %v", removed, err)
	}
}

// TestSnapshotTornAtEveryByte is the crash and torn-transfer fixture. This
// build's snapshot, truncated at every possible length, is refused by every
// reader — the follower's, Compact's verifier and recovery's — and read back
// whole only uncut. A snapshot an older build wrote, with checkpoint
// sections, is refused by the first two by name (storage.ErrOlderFormat),
// whole or cut after its header. Recovery, which upgrades it, must not load
// it when the cut falls inside the header or record frames, and loses
// nothing to a cut in the section tail: the sections are skipped anyway.
func TestSnapshotTornAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	st := testState(t, 12)
	want := stateJSON(t, st)
	current, _, err := WriteSnapshot(dir, 4, st)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(current)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(whole); cut >= 0; cut-- {
		if err := os.WriteFile(current, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, rerr := ReadSnapshot(bytes.NewReader(whole[:cut]))
		_, verr := walkSnapshot(bytes.NewReader(whole[:cut]))
		snap, lerr := latestDecoded(dir)
		if ok := cut == len(whole); (rerr == nil) != ok || (verr == nil) != ok || lerr != nil || (snap != nil) != ok {
			t.Fatalf("cut=%d of %d: read %v, verified %v, recovered %v, %v", cut, len(whole), rerr, verr, snap != nil, lerr)
		}
		if snap != nil && stateJSON(t, snap.State) != want {
			t.Fatal("the uncut snapshot lost state")
		}
	}
	if err := os.Remove(current); err != nil {
		t.Fatal(err)
	}

	path, info := writeOlderSnapshot(t, dir, 5, st, testSections())
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, full)
	if len(ends) != info.Frames {
		t.Fatalf("%d frames on disk, info says %d", len(ends), info.Frames)
	}
	primaryLen := ends[len(ends)-1-len(testSections())] // end of the last record chunk
	for cut := len(full); cut >= 0; cut-- {
		_, rerr := ReadSnapshot(bytes.NewReader(full[:cut]))
		_, verr := walkSnapshot(bytes.NewReader(full[:cut]))
		if rerr == nil || verr == nil || cut >= ends[0] && (!errors.Is(rerr, storage.ErrOlderFormat) || !errors.Is(verr, storage.ErrOlderFormat)) {
			t.Fatalf("cut=%d: the strict readers answered %v and %v, want storage.ErrOlderFormat", cut, rerr, verr)
		}
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := recoverSnapshot(dir)
		if err != nil {
			t.Fatalf("cut=%d: unexpected error %v", cut, err)
		}
		if cut < primaryLen {
			if snap != nil {
				t.Fatalf("cut=%d (before the last chunk ends at %d): snapshot loaded", cut, primaryLen)
			}
			continue
		}
		if snap == nil || snap.Seq != 5 || stateJSON(t, snap.State) != want {
			t.Fatalf("cut=%d: primary state lost", cut)
		}
	}
}

// TestSnapshotCorruption flips bytes in snapshots. Inside a record chunk of
// this build's newest snapshot, recovery, the verifier and the stream all
// fall back to the snapshot before it. In snapshots an older build wrote,
// which only recovery reads: inside a checkpoint section the CRC rejects it
// and reading stops there, keeping the state; inside a record chunk the
// whole snapshot is skipped in favour of the next older one.
func TestSnapshotCorruption(t *testing.T) {
	dir := t.TempDir()
	older := testState(t, 8)
	newer := testState(t, 12)
	if _, _, err := WriteSnapshot(dir, 10, older); err != nil {
		t.Fatal(err)
	}
	current, info, err := WriteSnapshot(dir, 20, newer)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(current)
	if err != nil {
		t.Fatal(err)
	}
	raw[frameEnds(t, raw)[1]+headerBytes+40] ^= 0xFF // inside the record chunk
	if err := os.WriteFile(current, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifySnapshot(current); err == nil {
		t.Fatal("the verifier accepted a flipped byte")
	}
	if snap, err := latestDecoded(dir); err != nil || snap == nil || snap.Seq != 10 || stateJSON(t, snap.State) != stateJSON(t, older) {
		t.Fatalf("after chunk damage: %+v, %v; want the snapshot before it (of %d frames)", snap, err, info.Frames)
	}
	f, seq, ok, err := OpenLatestSnapshot(dir)
	if err != nil || !ok || seq != 10 {
		t.Fatalf("OpenLatestSnapshot = seq %d, ok %v, err %v; want the snapshot before it", seq, ok, err)
	}
	f.Close()

	dir = t.TempDir()
	writeOlderSnapshot(t, dir, 10, older, testSections()[:1])
	path, _ := writeOlderSnapshot(t, dir, 20, newer, testSections())
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, full)
	flip := func(at int) {
		t.Helper()
		corrupt := append([]byte(nil), full...)
		corrupt[at] ^= 0xFF
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifySnapshot(path); err == nil {
			t.Fatalf("the verifier accepted a byte flipped at %d", at)
		}
	}

	flip(ends[len(ends)-2] - 1) // last byte of the second section
	snap, err := recoverSnapshot(dir)
	if err != nil || snap == nil || snap.Seq != 20 || stateJSON(t, snap.State) != stateJSON(t, newer) {
		t.Fatalf("after section damage: %+v, %v; want seq 20 and its state", snap, err)
	}

	flip(ends[0] + headerBytes + 40) // inside the first record chunk
	snap, err = recoverSnapshot(dir)
	if err != nil || snap == nil || snap.Seq != 10 || stateJSON(t, snap.State) != stateJSON(t, older) {
		t.Fatalf("after chunk damage: %+v, %v; want the older snapshot", snap, err)
	}
	// The streaming side serves no older build's snapshot.
	if _, _, ok, err := OpenLatestSnapshot(dir); ok || !errors.Is(err, storage.ErrOlderFormat) {
		t.Fatalf("OpenLatestSnapshot = ok %v, err %v over an older build's snapshots", ok, err)
	}
}

// TestSnapshotStreamRejectsForeignFrames: frames that do not belong — a
// different sequence, a chunk that overshoots the header's count or comes
// out of order, a log record, anything after the last chunk — fail the
// strict reader, and an older build's chunk fails it by name. An older
// build's stream, whose
// frames are header, records, edges and one section, is refused whole by
// name; the upgrade's reader takes it, checks the place of every record
// chunk, and never reads what follows the records.
func TestSnapshotStreamRejectsForeignFrames(t *testing.T) {
	split := func(raw []byte) func(int) []byte {
		ends := frameEnds(t, raw)
		return func(i int) []byte {
			start := 0
			if i > 0 {
				start = ends[i-1]
			}
			return raw[start:ends[i]]
		}
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	mut, _ := (&storage.Mutation{Op: storage.OpDelete, ID: 1}).Encode()
	extraChunk := parentRecordChunk(testState(t, 6).Records[:1])

	var good bytes.Buffer
	if _, err := writeSnapshotStream(&good, 7, testState(t, 6)); err != nil {
		t.Fatal(err)
	}
	if snap, err := ReadSnapshot(bytes.NewReader(good.Bytes())); err != nil || snap.Info.Frames != 3 {
		t.Fatalf("the untouched stream: %+v, %v", snap, err)
	}
	frame := split(good.Bytes())
	for name, stream := range map[string][]byte{
		"empty":                   nil,
		"no header":               join(frame(1), frame(2)),
		"header twice":            join(frame(0), frame(0), frame(1), frame(2)),
		"chunk from another seq":  join(frame(0), encodeFrame(8, frame(1)[headerBytes:]), frame(2)),
		"one record chunk more":   join(good.Bytes(), frame(2)),
		"records before shapes":   join(frame(0), frame(2), frame(1)),
		"log record as a chunk":   join(frame(0), frame(1), encodeFrame(7, mut), frame(2)),
		"frame after the last":    join(good.Bytes(), encodeFrame(7, mut)),
		"an older build's chunk":  join(frame(0), frame(1), encodeFrame(7, extraChunk)),
		"an older build's header": []byte(parentSnapshot),
	} {
		snap, err := ReadSnapshot(bytes.NewReader(stream))
		if err == nil || snap != nil {
			t.Errorf("%s: accepted", name)
		}
		if strings.HasPrefix(name, "an older") && !errors.Is(err, storage.ErrOlderFormat) {
			t.Errorf("%s: %v, want storage.ErrOlderFormat", name, err)
		}
	}

	older := split([]byte(parentSnapshot))
	part := func(name string, version, left int, data string) []byte {
		return encodeFrame(7, appendSectionPart(nil, name, version, left, []byte(data)))
	}
	for name, stream := range map[string][]byte{
		"a section in three parts": join(older(0), older(1), older(2), part("stats", 2, 2, "a"), part("stats", 2, 1, "b"), part("stats", 2, 0, "c")),
		"section missing":          join(older(0), older(1), older(2)),
		"section part missing":     join(older(0), older(1), older(2), part("stats", 2, 2, "a"), part("stats", 2, 0, "c")),
		"part of another section":  join(older(0), older(1), older(2), part("stats", 2, 1, "a"), part("sessions", 2, 0, "b")),
		"part of another version":  join(older(0), older(1), older(2), part("stats", 2, 1, "a"), part("stats", 3, 0, "b")),
		"parts never end":          join(older(0), older(1), older(2), part("stats", 2, 1, "a")),
		"a record chunk past them": join(older(0), older(1), encodeFrame(7, extraChunk), older(2), older(3)),
	} {
		if snap, err := readOlderSnapshot(bytes.NewReader(stream)); err != nil || len(snap.State.Records) != 2 {
			t.Errorf("%s: %+v, %v; want the two records", name, snap, err)
		}
	}
	for name, stream := range map[string][]byte{
		"empty":                  nil,
		"no header":              join(older(1), older(2), older(3)),
		"header twice":           join(older(0), older(0), older(1), older(2), older(3)),
		"chunk from another seq": join(older(0), encodeFrame(8, older(1)[headerBytes:]), older(2), older(3)),
		"one record chunk more":  join(older(0), encodeFrame(7, extraChunk), older(1), older(2), older(3)),
		"edges before records":   join(older(0), older(2), older(1), older(3)),
		"log record as a chunk":  join(older(0), encodeFrame(7, mut), older(2), older(3)),
		"this build's header":    good.Bytes(),
	} {
		if snap, err := readOlderSnapshot(bytes.NewReader(stream)); err == nil || snap != nil {
			t.Errorf("the upgrade's reader: %s: accepted", name)
		}
	}
}

// TestSnapshotChunksStayUnderTheFrameBound is the regression test for the
// single-frame snapshot that outgrew maxPayloadBytes, was rejected as torn by
// its own reader and — its covered segments already deleted — left a
// directory that would not open. Records with ~1 MiB texts force several
// chunk frames; none may exceed the bound, and compact → reopen must hold
// every record.
func TestSnapshotChunksStayUnderTheFrameBound(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig(dir)
	cfg.SyncPolicy = "off"
	cfg.SegmentBytes = 4 << 20
	store := storage.NewStore()
	mgr, _, err := Open(store, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		rec, err := storage.NewRecordFromSQL("SELECT WaterTemp.temp FROM WaterTemp WHERE WaterTemp.lake = '" +
			strings.Repeat(string(rune('a'+i)), 1<<20) + "'")
		if err != nil {
			t.Fatal(err)
		}
		rec.User = "alice"
		mustPut(t, store, rec)
	}
	segsBefore, _ := mgr.log.Segments()
	path, seq, removed, err := mgr.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || removed != len(segsBefore)-1 {
		t.Fatalf("compaction removed %d of %d segments", removed, len(segsBefore))
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, raw)
	prev, largest := 0, 0
	for _, end := range ends {
		largest = max(largest, end-prev-headerBytes)
		prev = end
	}
	if len(ends) < n/2 {
		t.Fatalf("%d MiB of records went into %d frames", n, len(ends))
	}
	// A chunk closes at snapshotChunkBytes and overshoots by at most one
	// record, however large the store: that, not the store's size, is what
	// keeps every frame under the reader's bound.
	if bound := snapshotChunkBytes + 4<<20; largest > bound || largest > maxPayloadBytes {
		t.Fatalf("largest frame payload is %d bytes (chunk bound %d, reader bound %d)", largest, bound, maxPayloadBytes)
	}
	info, err := mgr.Info()
	if err != nil || len(info.Snapshots) != 1 || info.Snapshots[0].Records != n || info.Snapshots[0].Frames != len(ends) {
		t.Fatalf("Info().Snapshots = %+v, %v", info.Snapshots, err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := storage.NewStore()
	mgr2, rec, err := Open(store2, cfg, nil)
	if err != nil {
		t.Fatalf("reopening after compaction: %v", err)
	}
	defer mgr2.Close()
	if store2.Count() != n || rec.SnapshotSeq != seq || rec.SnapshotRecords != n || rec.SnapshotFrames != len(ends) || rec.Replayed != 0 {
		t.Fatalf("reopened with %d records, recovery %+v", store2.Count(), rec)
	}
	assertStoresEqual(t, store, store2)
}

// TestOversizedRecordNeverReachesTheLog is the regression test for an
// acknowledged write the log then refused: a query under the batch endpoint's
// 8 MiB body limit that repeats one 2 MB identifier as table and column in
// SELECT, WHERE and GROUP BY grows into a record past the frame limit (text,
// canonical, template and every feature string repeat it). It used to be applied in
// memory, dropped by AppendAsync, and the Annotate logged after it made the
// directory unopenable ("replaying record 2 (annotate): query not found").
// Now the store refuses it before applying anything, so whatever was
// acknowledged is in the log, snapshots keep working and the directory opens.
func TestOversizedRecordNeverReachesTheLog(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig(dir)
	cfg.SyncPolicy = "off"
	store := storage.NewStore()
	mgr, _, err := Open(store, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	alice := storage.Principal{User: "alice"}
	query := func(identBytes int) *storage.QueryRecord {
		ident := strings.Repeat("a", identBytes)
		rec, err := storage.NewRecordFromSQL("SELECT " + ident + " FROM " + ident + " WHERE " + ident + " = 1 GROUP BY " + ident)
		if err != nil {
			t.Fatal(err)
		}
		rec.User = "alice"
		return rec
	}

	giant := query(2_000_000)
	payload, err := (&storage.Mutation{Op: storage.OpPut, Record: giant}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(giant.Text) >= 8<<20 || len(payload) <= maxPayloadBytes {
		t.Fatalf("a %d-byte query encoding to %d bytes is not the case under test: under 8 MiB of text, over the %d-byte frame limit",
			len(giant.Text), len(payload), maxPayloadBytes)
	}
	if id, err := store.Put(giant); id != 0 || !errors.Is(err, storage.ErrTooLarge) {
		t.Fatalf("a record of %d encoded bytes: Put = %d, %v; want no ID and ErrTooLarge", len(payload), id, err)
	}
	if err := store.Annotate(1, alice, storage.Annotation{Text: "on the refused record"}); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("annotating the refused record: %v", err)
	}

	// Ordinary records and a merely large one go through every path.
	buildStore(t, store, 4)
	id := mustPut(t, store, query(400_000)) // a 1.6 MB query is not refused
	if err := store.Annotate(id, alice, storage.Annotation{Text: "on the large record"}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Err(); err != nil {
		t.Fatalf("the log refused an acknowledged mutation: %v", err)
	}
	if _, _, _, err := mgr.Compact(); err != nil {
		t.Fatalf("compacting: %v", err)
	}
	if err := store.Annotate(id, alice, storage.Annotation{Text: "after the snapshot"}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := storage.NewStore()
	mgr2, rec, err := Open(store2, cfg, nil)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer mgr2.Close()
	if n := store.Count(); n < 2 || rec.SnapshotRecords != n || rec.Replayed != 1 || store2.Count() != n {
		t.Fatalf("recovery %+v with %d records", rec, store2.Count())
	}
	assertStoresEqual(t, store, store2)
}

// TestCheckpointSectionsSpanFrames: an older build cut a subscriber's
// checkpoint larger than one frame into parts. Recovery, which upgrades the
// snapshot, reads, checks and skips every part, and the records come back
// whole; a torn part costs that section and the ones after it, which are
// skipped anyway, and nothing before. The verifier and the stream refuse the
// snapshot by name.
func TestCheckpointSectionsSpanFrames(t *testing.T) {
	pattern := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 7)
		}
		return b
	}
	sections := []section{
		{"small", 1, []byte("one frame")},
		{"stats", 2, pattern(3*snapshotChunkBytes + 17)},
		{"over-a-frame", 2, pattern(maxPayloadBytes + 1)},
		{"exact", 9, pattern(2 * snapshotChunkBytes)},
	}
	dir := t.TempDir()
	st := testState(t, 4)
	path, info := writeOlderSnapshot(t, dir, 11, st, sections)
	wantFrames := 2 // header, one record chunk
	for _, sec := range sections {
		wantFrames += (len(sec.data) + snapshotChunkBytes - 1) / snapshotChunkBytes
	}
	if info.Frames != wantFrames {
		t.Fatalf("written %d frames, want %d", info.Frames, wantFrames)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifySnapshot(path); !errors.Is(err, storage.ErrOlderFormat) {
		t.Fatalf("VerifySnapshot: %v, want storage.ErrOlderFormat", err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(raw)); !errors.Is(err, storage.ErrOlderFormat) {
		t.Fatalf("ReadSnapshot: %v, want storage.ErrOlderFormat", err)
	}
	snap, err := recoverSnapshot(dir)
	if err != nil || snap == nil || snap.Info.Frames != wantFrames || snap.Info.Bytes != int64(len(raw)) || stateJSON(t, snap.State) != stateJSON(t, st) {
		t.Fatalf("recoverSnapshot = %+v, %v", snap, err)
	}

	// Cut inside the second part of "stats".
	ends := frameEnds(t, raw)
	cut := ends[2+1+1] - 5 // header, chunk, "small", first part of "stats"
	if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err = recoverSnapshot(dir)
	if err != nil || snap == nil || stateJSON(t, snap.State) != stateJSON(t, st) {
		t.Fatalf("after a torn part: %+v, %v; want the state", snap, err)
	}
}

// TestOlderSnapshotSectionsAreSkipped: recovery from a snapshot an older
// build wrote, with sections for every subscriber it knew — in the versions
// it wrote them — and one this build never had, restores nothing from them.
// Every subscriber rebuilds from the snapshot's records, once, and the tail
// replays on top.
func TestOlderSnapshotSectionsAreSkipped(t *testing.T) {
	dir := t.TempDir()
	src := storage.NewStore()
	buildStore(t, src, 10)
	writeOlderSnapshot(t, dir, 1, src.CaptureState(nil), []section{
		{"stats", 1, []byte(`{"all":{}}`)}, {"stats", 2, []byte{0, 0, 0}},
		{"miner-feed", 2, []byte{1, 5, 1, 15}}, {"miner-feed", 3, nil},
		{"sessions", 2, []byte{2, 0}}, {"sessions", 3, []byte{2, 0}},
		{"unknown", 7, []byte("ignored")},
	})
	store := storage.NewStore()
	rebuilds := map[string]int{}
	for _, name := range []string{"stats", "miner-feed", "sessions"} {
		store.Subscribe(name, func(*storage.Mutation) {}, storage.SubscribeOptions{
			Rebuild: func() { rebuilds[name]++ },
		})
	}
	clear(rebuilds) // the rebuilds at registration, over an empty store
	mgr, info, err := Open(store, testConfig(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if info.SnapshotSeq != 1 || info.SnapshotFrames != 9 || store.Count() != src.Count() {
		t.Fatalf("recovery %+v, %d records; want the snapshot's %d records and its 9 frames", info, store.Count(), src.Count())
	}
	if want := map[string]int{"stats": 1, "miner-feed": 1, "sessions": 1}; !maps.Equal(rebuilds, want) {
		t.Fatalf("rebuilds %v, want %v", rebuilds, want)
	}
	assertStoresEqual(t, src, store)
}

// TestFrameLengthFieldCannotSizeAnAllocation: a length field that claims far
// more than the stream holds is read as torn, and costs no more memory than
// the bytes that are really there.
func TestFrameLengthFieldCannotSizeAnAllocation(t *testing.T) {
	frame := encodeFrame(1, []byte("payload"))
	binary.LittleEndian.PutUint32(frame[0:4], maxPayloadBytes) // a flipped high byte
	fr := newFrameReader(bytes.NewReader(frame))
	if _, _, _, err := fr.next(); !errors.Is(err, errTorn) {
		t.Fatalf("err = %v, want torn", err)
	}
	if cap(fr.buf) > readStepBytes {
		t.Fatalf("a %d-byte stream grew the read buffer to %d bytes", len(frame), cap(fr.buf))
	}
	binary.LittleEndian.PutUint32(frame[0:4], maxPayloadBytes+1)
	if _, _, _, err := newFrameReader(bytes.NewReader(frame)).next(); !errors.Is(err, errTorn) {
		t.Fatalf("over the bound: err = %v, want torn", err)
	}
	if _, err := (&Log{}).AppendAsync(make([]byte, maxPayloadBytes+1)); err == nil {
		t.Fatal("an over-limit record was accepted for append")
	}
}

// TestPreBinaryDirectoryIsRefusedByName: a data directory written by a JSON
// build gets one specific error naming the file and the sequence, from a
// snapshot and from a log segment alike.
func TestPreBinaryDirectoryIsRefusedByName(t *testing.T) {
	t.Run("snapshot", func(t *testing.T) {
		dir := t.TempDir()
		name := snapshotName(5400)
		if err := os.WriteFile(filepath.Join(dir, name), encodeFrame(5400, []byte(`{"nextId":5401,"records":[]}`)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Open(storage.NewStore(), Config{Dir: dir, SyncPolicy: "off"}, nil)
		if !errors.Is(err, storage.ErrPreBinaryPayload) || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "sequence 5400") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("segment", func(t *testing.T) {
		dir := t.TempDir()
		name := segmentName(1)
		if err := os.WriteFile(filepath.Join(dir, name), encodeFrame(1, []byte(`{"op":"delete","id":3}`)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Open(storage.NewStore(), Config{Dir: dir, SyncPolicy: "off"}, nil)
		if !errors.Is(err, storage.ErrPreBinaryPayload) || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "record 1") {
			t.Fatalf("err = %v", err)
		}
	})
}

// payloadLog is a storage.Log that keeps the encoding of every mutation
// appended to it.
type payloadLog [][]byte

func (l *payloadLog) Append(m *storage.Mutation) (uint64, error) {
	p, err := m.Encode()
	*l = append(*l, p)
	return uint64(len(*l)), err
}

func (*payloadLog) WaitDurable(uint64) error { return nil }

// shapeLog is what a store holding three shapes (fuzzStore) logs next: a
// put defining shape 4 inline, a put referring to shape 1, and a replace-text
// referring to shape 4.
func shapeLog(t testing.TB) (define, refer, retext []byte) {
	store := fuzzStore(t)
	var payloads payloadLog
	store.SetLog(&payloads)
	recs := fuzzRecords(t)
	mustPut(t, store, walRecord(t, "SELECT Observations.id FROM Observations", "user0"))
	mustPut(t, store, recs[0].Clone())
	if err := store.ReplaceText(2, walRecord(t, "SELECT Observations.id FROM Observations", "")); err != nil {
		t.Fatal(err)
	}
	return payloads[0], payloads[1], payloads[2]
}

// fuzzRecords are the records fuzzStore puts, one per shape and sample.
func fuzzRecords(t testing.TB) []*storage.QueryRecord {
	recs := []*storage.QueryRecord{
		walRecord(t, "SELECT WaterTemp.temp FROM WaterTemp WHERE WaterTemp.temp < 10", "user0"),
		walRecord(t, "SELECT WaterSalinity.salinity FROM WaterSalinity", "user1"),
		walRecord(t, "SELECT a FROM t", "user2"),
	}
	for i, rec := range recs {
		rec.Sample = walSample(fmt.Sprint(i))
	}
	return recs
}

func walSample(v string) *storage.OutputSample {
	return &storage.OutputSample{Columns: []string{"v"}, Rows: [][]string{{v}}, TotalRows: 1}
}

// sampleLog is what a store holding three samples (fuzzStore) logs next: a
// put defining sample 4 inline, a put referring to sample 1, and a put
// referring to sample 4.
func sampleLog(t testing.TB) (define, refer, referNew []byte) {
	store := fuzzStore(t)
	var payloads payloadLog
	store.SetLog(&payloads)
	for _, v := range []string{"new", "0", "new"} {
		rec := walRecord(t, "SELECT a FROM t", "user0")
		rec.Sample = walSample(v)
		mustPut(t, store, rec)
	}
	return payloads[0], payloads[1], payloads[2]
}

// fuzzStore is a store holding three records of three shapes and three
// samples, each numbered 1 to 3: what the frame fuzzers apply their input
// to.
func fuzzStore(t testing.TB) *storage.Store {
	store := storage.NewStore()
	for _, rec := range fuzzRecords(t) {
		mustPut(t, store, rec)
	}
	return store
}

func walRecord(t testing.TB, text, user string) *storage.QueryRecord {
	rec, err := storage.NewRecordFromSQL(text)
	if err != nil {
		t.Fatal(err)
	}
	rec.User = user
	return rec
}

// FuzzReadFrames: the frame reader faces bytes from disk and from the
// network. It never panics, hands out only frames whose CRC matches, and
// what it accepted re-frames to a prefix of the input. Every accepted frame
// that decodes is applied, in order, to a store holding three shapes, the way
// a follower applies its tail: shape references resolve against what the
// frames before them defined, and an apply that fails never panics. A frame
// only an older build wrote is refused by name.
func FuzzReadFrames(f *testing.F) {
	mut, _ := (&storage.Mutation{Op: storage.OpMarkInvalid, ID: 3, Reason: "drift"}).Encode()
	two := append(encodeFrame(1, mut), encodeFrame(2, nil)...)
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Add(encodeFrame(9, bytes.Repeat([]byte("x"), 300)))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 'x'})
	f.Add([]byte{})
	// Puts of IDs outside [1, storage.MaxQueryID]: framed like any other
	// payload, refused only when applied.
	for _, id := range []storage.QueryID{-7, 1 << 60} {
		rec := testState(f, 1).Records[0].Clone()
		rec.ID = id
		put, err := (&storage.Mutation{Op: storage.OpPut, Record: rec}).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeFrame(4, put))
	}
	// Shape numbers: a definition then references to it; the reference
	// before the definition; a reference to shape 4 after the definition of
	// shape 4 was lost (a dangling one); and shape 4 defined twice with
	// different values.
	define, refer, retext := shapeLog(f)
	frames := func(payloads ...[]byte) []byte {
		var out []byte
		for i, p := range payloads {
			out = appendFrame(out, uint64(i+1), p)
		}
		return out
	}
	other := storage.NewStore()
	var otherLog payloadLog
	other.SetLog(&otherLog)
	for _, rec := range append(fuzzRecords(f), walRecord(f, "SELECT Stations.name FROM Stations", "user3")) {
		mustPut(f, other, rec)
	}
	f.Add(frames(define, refer, retext))
	f.Add(frames(retext, define))
	f.Add(frames(refer, retext))
	f.Add(frames(define, otherLog[3]))
	// Sample numbers, alike: sample 4 defined then referred to; the
	// reference before the definition; a reference to sample 4 with no
	// definition (a dangling one); and sample 4 defined twice with different
	// values.
	sdefine, srefer, sreferNew := sampleLog(f)
	otherSample := walRecord(f, "SELECT a FROM t", "user0")
	otherSample.Sample = walSample("other")
	mustPut(f, other, otherSample)
	f.Add(frames(sdefine, srefer, sreferNew))
	f.Add(frames(sreferNew, sdefine))
	f.Add(frames(srefer, sreferNew))
	f.Add(frames(sdefine, otherLog[4]))
	// What only an older build logged, which a follower refuses by name: a
	// set-sample, and a put whose record carries its shape's fields.
	f.Add(frames(olderSetSample(2, walSample("new")), olderPut(fuzzRecords(f)[0])))
	f.Fuzz(func(t *testing.T, b []byte) {
		var reframed []byte
		store := fuzzStore(t)
		err := ReadFrames(bytes.NewReader(b), func(seq uint64, payload []byte) error {
			reframed = appendFrame(reframed, seq, payload)
			m, err := storage.DecodeMutation(payload)
			if err == nil {
				_ = store.Apply(m)
			} else if olderPayload(payload) && !errors.Is(err, storage.ErrOlderFormat) {
				t.Fatalf("an older build's payload refused with %v, want storage.ErrOlderFormat", err)
			}
			return nil
		})
		if !bytes.HasPrefix(b, reframed) {
			t.Fatalf("accepted frames are not a prefix of the input")
		}
		if err == nil && len(reframed) != len(b) {
			t.Fatalf("clean end after %d of %d bytes", len(reframed), len(b))
		}
		if got := store.ShapeCount(); got > store.Count() {
			t.Fatalf("%d shapes for %d records", got, store.Count())
		}
	})
}

// parentSnapshot is a snapshot stream an older build wrote at sequence 7: two
// records filed under session 3, one session edge between them in an edge
// chunk, and an empty sessions section.
const parentSnapshot = "\x06\x00\x00\x00\x05\x1a#\xc5\x07\x00\x00\x00\x00\x00\x00\x00\x01@\x04\x02\x01\x01" +
	"\xa4\x00\x00\x00\xfe\xdc\xe0^\x07\x00\x00\x00\x00\x00\x00\x00\x01A\x02\x00\x00\x00" +
	"N\x02\x1eSELECT a FROM t\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02u\x00\x00" +
	"\xa0\xb0\x8e\x96\x09\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xdb\x8f\xf9\xce\x03\x00\x00\x00\x00" +
	"\x06\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
	"N\x04\x1eSELECT b FROM t\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02u\x00\x00" +
	"\x98\xb1\x8e\x96\x09\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xdb\x8f\xf9\xce\x03\x00\x00\x00\x00" +
	"\x06\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
	"\x19\x00\x00\x00\x12\x15\xf7\x92\x07\x00\x00\x00\x00\x00\x00\x00\x01B\x01\x00\x00\x00\x02\x04\x02\x0f-attr a\x0a+attr b" +
	"\x0d\x00\x00\x00R\x03dn\x07\x00\x00\x00\x00\x00\x00\x00\x01C\x08sessions\x03\x00"

// TestParentSnapshotWithEdgesReads: a snapshot an older build wrote, with an
// edge chunk, records carrying session IDs and a sessions section, reads back
// through the upgrade's reader — the edges, the session IDs and the section
// dropped — and rewrites without an edge chunk or a section.
func TestParentSnapshotWithEdgesReads(t *testing.T) {
	snap, err := readOlderSnapshot(bytes.NewReader([]byte(parentSnapshot)))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 7 || snap.Info.Frames != 4 || len(snap.State.Records) != 2 {
		t.Fatalf("read seq %d, %d frames, %d records", snap.Seq, snap.Info.Frames, len(snap.State.Records))
	}
	if r := snap.State.Records[1]; r.ID != 2 || r.Text != "SELECT b FROM t" || r.User != "u" || !r.Valid {
		t.Fatalf("record 2 = %+v", r)
	}
	store := storage.NewStore()
	if err := store.RestoreState(snap.State); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	info, err := writeSnapshotStream(&again, snap.Seq, store.CaptureState(nil))
	if err != nil {
		t.Fatal(err)
	}
	if info.Frames != 3 {
		t.Fatalf("the rewrite has %d frames, want header, shapes and records", info.Frames)
	}
	if strings.Contains(again.String(), "+attr b") || strings.Contains(again.String(), "sessions") {
		t.Fatal("the rewrite still carries the edge or the section")
	}
}

// FuzzDecodeSnapshot: the snapshot stream reader as the follower uses it.
// Arbitrary bytes never panic it; an error yields no snapshot at all, so
// nothing can be half-applied, and a stream whose header an older build
// wrote is refused by name. What it accepts is restored into a store —
// which may refuse a state whose shapes and records do not fit together, but
// never panics — and what the store takes survives a rewrite: write, read
// and restore again reach a fixpoint.
func FuzzDecodeSnapshot(f *testing.F) {
	for i, n := range []int{0, 3, 9} {
		var buf bytes.Buffer
		writeOlderSnapshotStream(f, &buf, uint64(40+n), testState(f, n), testSections()[:i+1])
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add(encodeFrame(1, []byte(`{"nextId":1}`)))
	// What only an older build writes, which the stream refuses by name.
	f.Add([]byte(parentSnapshot))
	// Record IDs and a high-water mark outside what the store accepts.
	for _, id := range []storage.QueryID{-7, 1 << 60} {
		badRecord, badMark := testState(f, 3), testState(f, 3)
		badRecord.Records[1].ID, badMark.NextID = id, id
		for _, st := range []*storage.StoreState{badRecord, badMark} {
			var buf bytes.Buffer
			if _, err := writeSnapshotStream(&buf, 41, st); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	streams := shapeSnapshots(f)
	for name, stream := range sampleSnapshots(f) {
		streams["sample "+name] = stream
	}
	names := make([]string, 0, len(streams))
	for name := range streams {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		f.Add(streams[name])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := ReadSnapshot(bytes.NewReader(b))
		if err != nil {
			if snap != nil {
				t.Fatalf("error %v with a snapshot", err)
			}
			if _, p, _, herr := newFrameReader(bytes.NewReader(b)).next(); herr == nil && olderPayload(p) && !errors.Is(err, storage.ErrOlderFormat) {
				t.Fatalf("an older build's snapshot refused with %v, want storage.ErrOlderFormat", err)
			}
			return
		}
		if snap.Info.Records != len(snap.State.Records) {
			t.Fatalf("info %+v disagrees with the staged state (%d records)", snap.Info, len(snap.State.Records))
		}
		store := storage.NewStore()
		if err := store.RestoreState(snap.State); err != nil {
			t.Fatalf("restoring an accepted snapshot: %v", err)
		}
		rewrite := func(s *storage.Store) []byte {
			var buf bytes.Buffer
			if _, err := writeSnapshotStream(&buf, snap.Seq, s.CaptureState(nil)); err != nil {
				t.Fatalf("rewriting an accepted snapshot: %v", err)
			}
			return buf.Bytes()
		}
		again := rewrite(store)
		snap2, err := ReadSnapshot(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("rereading the rewrite: %v", err)
		}
		store2 := storage.NewStore()
		if err := store2.RestoreState(snap2.State); err != nil {
			t.Fatalf("restoring the rewrite: %v", err)
		}
		if !bytes.Equal(again, rewrite(store2)) {
			t.Fatal("write(read(b)) is not a fixpoint")
		}
	})
}

// shapeSnapshots are snapshot streams of this build's format: a whole one,
// whose records define nothing and refer to the shapes chunk; one whose
// shapes chunk lacks a shape its records refer to; one with the record chunk
// before the shapes chunk; one with a shapes chunk after a record chunk; one
// whose two shape chunks both define shape 1, with different values; and one
// holding a shape none of its records names.
func shapeSnapshots(t testing.TB) map[string][]byte {
	st := testState(t, 9)
	var enc storage.Encoder
	stream := func(st *storage.StoreState, payloads ...[]byte) []byte {
		out := appendFrame(nil, 50, enc.AppendSnapshotHeader(nil, st))
		for _, p := range payloads {
			out = appendFrame(out, 50, p)
		}
		return out
	}
	shapes, _ := enc.AppendShapeChunk(nil, st.Shapes, 1<<20)
	first, _ := enc.AppendShapeChunk(nil, st.Shapes[:1], 1<<20)
	rest, _ := enc.AppendShapeChunk(nil, st.Shapes[1:], 1<<20)
	// Each record chunk starts a snapshot of its own, defining its samples.
	recordChunk := func(recs []*storage.QueryRecord) []byte {
		var enc storage.Encoder
		p, _ := enc.AppendRecordChunk(nil, recs, 1<<20)
		return p
	}
	records := recordChunk(st.Records)
	lacking := *st
	lacking.Shapes = st.Shapes[1:]
	other := storage.NewStore()
	mustPut(t, other, walRecord(t, "SELECT Stations.name FROM Stations", "user3"))
	otherShapes := other.CaptureState(nil).Shapes
	otherFirst, _ := enc.AppendShapeChunk(nil, otherShapes, 1<<20)
	twice := *st
	twice.Shapes = append([]*storage.QueryShape{otherShapes[0]}, st.Shapes...)
	unused := *st
	unused.Records = slices.DeleteFunc(slices.Clone(st.Records), func(rec *storage.QueryRecord) bool { return rec.QueryShape == st.Shapes[0] })
	unusedRecords := recordChunk(unused.Records)
	return map[string][]byte{
		"whole":                 stream(st, shapes, records),
		"dangling reference":    stream(&lacking, rest, records),
		"records before shapes": stream(st, records, shapes),
		"shapes after records":  stream(st, first, records, rest),
		"number defined twice":  stream(&twice, otherFirst, shapes, records),
		"shape without records": stream(&unused, shapes, unusedRecords),
	}
}

// sampleSnapshots are snapshot streams whose records break the sample
// rules, next to a whole one: each sample is defined at its first record and
// referred to after, so dropping the defining chunk leaves a dangling
// reference, putting it last a reference before its definition, a second
// snapshot's chunk defines number 1 again with other values, and a counter
// cut to 1 leaves sample 1 at or past it.
func sampleSnapshots(t testing.TB) map[string][]byte {
	st := testState(t, 12) // two answers, each at two queries; query 1 has one
	if st.Records[0].Sample == nil || sampleRecords(st, st.Records[0].Sample) != 2 || st.NextSample != 3 {
		t.Fatal("the test state no longer repeats its two samples")
	}
	var enc storage.Encoder
	shapes, _ := enc.AppendShapeChunk(nil, st.Shapes, 1<<20)
	stream := func(st *storage.StoreState, records ...[]byte) []byte {
		var enc storage.Encoder
		out := appendFrame(nil, 50, enc.AppendSnapshotHeader(nil, st))
		for _, p := range append([][]byte{shapes}, records...) {
			out = appendFrame(out, 50, p)
		}
		return out
	}
	var defining storage.Encoder
	head, _ := defining.AppendRecordChunk(nil, st.Records[:1], 1<<20)
	tail, _ := defining.AppendRecordChunk(nil, st.Records[1:], 1<<20)
	lacking := *st
	lacking.Records = st.Records[1:]
	other := storage.NewStore()
	rec := walRecord(t, st.Records[0].Text, "user3")
	rec.Sample = &storage.OutputSample{Columns: []string{"other"}}
	mustPut(t, other, rec)
	redefined := other.CaptureState(nil).Records[0].Clone()
	redefined.QueryShape, redefined.ID = st.Records[0].QueryShape, 99
	twice := *st
	twice.Records = append(slices.Clone(st.Records), redefined)
	var again storage.Encoder
	redefining, _ := again.AppendRecordChunk(nil, twice.Records[len(st.Records):], 1<<20)
	low := *st
	low.NextSample = 1
	return map[string][]byte{
		"whole":                           stream(st, head, tail),
		"dangling reference":              stream(&lacking, tail),
		"reference before its definition": stream(st, tail, head),
		"number reused with other values": stream(&twice, head, tail, redefining),
		"number at the counter":           stream(&low, head, tail),
	}
}

// TestSnapshotSamplesAreChecked: a snapshot's record refers only to a sample
// a record before it defined, defines each number once, below the header's
// counter. The reader refuses each stream that breaks one of these with
// storage.ErrUnknownSample; the whole one restores with the sample numbers
// it was written with.
func TestSnapshotSamplesAreChecked(t *testing.T) {
	for name, stream := range sampleSnapshots(t) {
		snap, err := ReadSnapshot(bytes.NewReader(stream))
		if (err == nil) != (name == "whole") || err != nil && !errors.Is(err, storage.ErrUnknownSample) {
			t.Errorf("%s: read with error %v", name, err)
		}
		if err != nil {
			continue
		}
		store := storage.NewStore()
		if err := store.RestoreState(snap.State); err != nil {
			t.Fatal(err)
		}
		want, got := testState(t, 12), store.CaptureState(nil)
		if stateJSON(t, got) != stateJSON(t, want) || got.NextSample != want.NextSample || store.SampleCount() != 2 {
			t.Fatalf("restored %d samples, counter %d; want 2, %d", store.SampleCount(), got.NextSample, want.NextSample)
		}
		for i, rec := range got.Records {
			if w := want.Records[i]; (rec.Sample == nil) != (w.Sample == nil) || rec.Sample != nil && rec.Sample.Number() != w.Sample.Number() {
				t.Errorf("query %d restored with another sample number", rec.ID)
			}
		}
		if sampleRecords(got, got.Records[0].Sample) != 2 {
			t.Error("the two records of one sample restored with two")
		}
	}
}

// sampleRecords counts the records of st pointing at sm.
func sampleRecords(st *storage.StoreState, sm *storage.OutputSample) int {
	n := 0
	for _, rec := range st.Records {
		if rec.Sample == sm {
			n++
		}
	}
	return n
}

// TestSnapshotShapesAreChecked: a snapshot's records must refer to shapes its
// shape chunks define, and those chunks come first, in ascending number. The
// strict reader refuses each stream that breaks one of these; the whole one
// restores with the shape numbers it was written with.
func TestSnapshotShapesAreChecked(t *testing.T) {
	streams := shapeSnapshots(t)
	for name, stream := range streams {
		snap, err := ReadSnapshot(bytes.NewReader(stream))
		if (err == nil) != (name == "whole") {
			t.Errorf("%s: read with error %v", name, err)
		}
		if name == "dangling reference" && !errors.Is(err, storage.ErrUnknownShape) {
			t.Errorf("%s: %v, want storage.ErrUnknownShape", name, err)
		}
		if name == "shape without records" && (err == nil || !strings.Contains(err.Error(), "has no record")) {
			t.Errorf("%s: %v", name, err)
		}
		if err != nil {
			continue
		}
		store := storage.NewStore()
		if err := store.RestoreState(snap.State); err != nil {
			t.Fatal(err)
		}
		want := testState(t, 9)
		got := store.CaptureState(nil)
		if stateJSON(t, got) != stateJSON(t, want) || got.NextShape != want.NextShape || len(got.Shapes) != len(want.Shapes) {
			t.Fatalf("restored %d shapes, counter %d; want %d, %d", len(got.Shapes), got.NextShape, len(want.Shapes), want.NextShape)
		}
		for i, sh := range got.Shapes {
			if sh.Number() != want.Shapes[i].Number() || sh.Text != want.Shapes[i].Text {
				t.Errorf("shape %d restored as %d %q, want %d %q", i, sh.Number(), sh.Text, want.Shapes[i].Number(), want.Shapes[i].Text)
			}
		}
	}
}
