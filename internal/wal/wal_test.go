package wal

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// appendDurable sequences one record and waits for the durability its policy
// promises, as the manager does for a write. A failed wait comes with the
// record's sequence: it is in the log, only not provably durable.
func appendDurable(l *Log, payload []byte) (uint64, error) {
	seq, err := l.AppendAsync(payload)
	if err != nil {
		return 0, err
	}
	return seq, l.WaitDurable(seq)
}

func mustAppend(t *testing.T, l *Log, payload string) uint64 {
	t.Helper()
	seq, err := appendDurable(l, []byte(payload))
	if err != nil {
		t.Fatalf("Append(%q): %v", payload, err)
	}
	return seq
}

func collect(t *testing.T, l *Log, after uint64) map[uint64]string {
	t.Helper()
	out := map[uint64]string{}
	err := l.Replay(after, func(seq uint64, payload []byte) error {
		out[seq] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay(%d): %v", after, err)
	}
	return out
}

// TestSeqFileNamesMatchSprintf: segment and snapshot names are the prefix,
// the sequence zero-padded to 20 digits as fmt's %020d prints it, and the
// suffix, and they parse back.
func TestSeqFileNamesMatchSprintf(t *testing.T) {
	seqs := []uint64{0, 1, 9, 10, 12345, 1<<63 - 1, 1 << 63, math.MaxUint64}
	for p := uint64(1); p < math.MaxUint64/10; p *= 10 {
		seqs = append(seqs, p-1, p, p+1)
	}
	for _, seq := range seqs {
		for _, name := range []string{segmentName(seq), snapshotName(seq)} {
			prefix, suffix := segmentPrefix, segmentSuffix
			if name == snapshotName(seq) {
				prefix, suffix = snapshotPrefix, snapshotSuffix
			}
			if want := fmt.Sprintf("%s%020d%s", prefix, seq, suffix); name != want {
				t.Errorf("name of %d = %q, want %q", seq, name, want)
			}
			if got, ok := parseSeqFileName(name, prefix, suffix); !ok || got != seq {
				t.Errorf("parseSeqFileName(%q) = %d, %v", name, got, ok)
			}
		}
	}
}

func TestAppendAndReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(testConfig(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	for i := 1; i <= 10; i++ {
		seq := mustAppend(t, l, fmt.Sprintf("record-%d", i))
		if seq != uint64(i) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	got := collect(t, l, 0)
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	if got[7] != "record-7" {
		t.Fatalf("record 7 = %q", got[7])
	}
	// Replay after a midpoint skips the prefix.
	tail := collect(t, l, 6)
	if len(tail) != 4 {
		t.Fatalf("replay after 6 returned %d records, want 4", len(tail))
	}
	if _, ok := tail[6]; ok {
		t.Fatal("replay after 6 included seq 6")
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(testConfig(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "a")
	mustAppend(t, l, "b")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(testConfig(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 2 {
		t.Fatalf("LastSeq after reopen = %d, want 2", l2.LastSeq())
	}
	if seq := mustAppend(t, l2, "c"); seq != 3 {
		t.Fatalf("append after reopen assigned seq %d, want 3", seq)
	}
	got := collect(t, l2, 0)
	if got[1] != "a" || got[2] != "b" || got[3] != "c" {
		t.Fatalf("replay after reopen = %v", got)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SegmentBytes = 256
	l, err := OpenLog(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 20; i++ {
		if _, err := appendDurable(l, payload); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := l.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 5 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].FirstSeq <= segs[i-1].FirstSeq {
			t.Fatalf("segments out of order: %+v", segs)
		}
	}
	if got := collect(t, l, 0); len(got) != 20 {
		t.Fatalf("replayed %d records across segments, want 20", len(got))
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(testConfig(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "alpha")
	mustAppend(t, l, "beta")
	mustAppend(t, l, "gamma")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop bytes off the end of the only segment, simulating a crash mid-write.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segs[0].Name)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(testConfig(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !l2.Truncated() {
		t.Fatal("open did not report a torn tail")
	}
	if l2.LastSeq() != 2 {
		t.Fatalf("LastSeq after torn tail = %d, want 2", l2.LastSeq())
	}
	// The log stays appendable and the torn record's sequence is reused.
	if seq := mustAppend(t, l2, "gamma-rewrite"); seq != 3 {
		t.Fatalf("append after truncation assigned seq %d, want 3", seq)
	}
	got := collect(t, l2, 0)
	if got[1] != "alpha" || got[2] != "beta" || got[3] != "gamma-rewrite" {
		t.Fatalf("replay after truncation = %v", got)
	}
}

func TestCorruptRecordTruncatesFromThere(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(testConfig(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "first")
	mustAppend(t, l, "second")
	mustAppend(t, l, "third")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte inside the second record: its CRC no longer matches,
	// so recovery keeps only the records before it.
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0].Name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := int64(headerBytes + len("first"))
	data[firstLen+headerBytes] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(testConfig(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !l2.Truncated() {
		t.Fatal("open did not report truncation after CRC mismatch")
	}
	if l2.LastSeq() != 1 {
		t.Fatalf("LastSeq after corruption = %d, want 1", l2.LastSeq())
	}
	got := collect(t, l2, 0)
	if len(got) != 1 || got[1] != "first" {
		t.Fatalf("replay after corruption = %v", got)
	}
}

func TestReplayErrorsOnCorruptOlderSegment(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SegmentBytes = 64
	l, err := OpenLog(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, l, fmt.Sprintf("record-number-%02d", i))
	}
	segs, err := l.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need at least 3 segments, got %d", len(segs))
	}
	// Corrupt the first (non-active) segment: replay must fail loudly rather
	// than silently skip committed records.
	path := filepath.Join(dir, segs[0].Name)
	data, _ := os.ReadFile(path)
	data[headerBytes] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = l.Replay(0, func(uint64, []byte) error { return nil })
	if err == nil {
		t.Fatal("replay over corrupt older segment succeeded")
	}
	l.Close()
}

func TestRemoveSegmentsCoveredBy(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SegmentBytes = 64
	l, err := OpenLog(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 12; i++ {
		mustAppend(t, l, fmt.Sprintf("record-number-%02d", i))
	}
	before, _ := l.Segments()
	if len(before) < 4 {
		t.Fatalf("need several segments, got %d", len(before))
	}
	// A sequence inside the log: only fully covered segments go.
	cover := before[2].FirstSeq - 1
	removed, err := l.RemoveSegmentsCoveredBy(cover)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("removed %d segments, want 2", removed)
	}
	got := collect(t, l, cover)
	for seq := range got {
		if seq <= cover {
			t.Fatalf("replay returned covered seq %d", seq)
		}
	}
	// The active segment survives even when fully covered.
	if _, err := l.RemoveSegmentsCoveredBy(l.LastSeq()); err != nil {
		t.Fatal(err)
	}
	after, _ := l.Segments()
	if len(after) != 1 {
		t.Fatalf("%d segments left, want only the active one", len(after))
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"", SyncInterval}, {"off", SyncOff}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("ParseSyncPolicy accepted bogus policy")
	}

	// Appends reach disk under every policy.
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		dir := t.TempDir()
		cfg := Config{Dir: dir, SyncPolicy: policy.String()}
		l, err := OpenLog(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, l, "payload")
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := OpenLog(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := collect(t, l2, 0); got[1] != "payload" {
			t.Fatalf("policy %v: replay = %v", policy, got)
		}
		l2.Close()
	}
}

// encodeFrame frames one payload on its own.
func encodeFrame(seq uint64, payload []byte) []byte {
	return appendFrame(make([]byte, 0, headerBytes+len(payload)), seq, payload)
}
