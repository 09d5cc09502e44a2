package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// streamTestLog opens a log in a temp dir and appends n small payloads.
func streamTestLog(t *testing.T, n int) *Log {
	t.Helper()
	l, err := OpenLog(Config{Dir: t.TempDir(), SyncPolicy: SyncOff.String(), SegmentBytes: 256}, nil)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	for i := 1; i <= n; i++ {
		if _, err := appendDurable(l, fmt.Appendf(nil, "record-%04d", i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	return l
}

// TestReadTailRoundTrip streams a tail over ReadTail, decodes it with
// ReadFrames (the follower's path) and checks every record past the cursor
// comes back once, in order, byte-identical.
func TestReadTailRoundTrip(t *testing.T) {
	const n, after = 50, 17
	l := streamTestLog(t, n)
	var buf bytes.Buffer
	last, records, err := l.ReadTail(after, 1<<20, &buf)
	if err != nil {
		t.Fatalf("ReadTail: %v", err)
	}
	if last != n || records != n-after {
		t.Fatalf("ReadTail = (last %d, records %d), want (%d, %d)", last, records, n, n-after)
	}
	want := uint64(after + 1)
	if err := ReadFrames(&buf, func(seq uint64, payload []byte) error {
		if seq != want {
			return fmt.Errorf("got seq %d, want %d", seq, want)
		}
		if got := string(payload); got != fmt.Sprintf("record-%04d", seq) {
			return fmt.Errorf("seq %d payload = %q", seq, got)
		}
		want++
		return nil
	}); err != nil {
		t.Fatalf("ReadFrames: %v", err)
	}
	if want != n+1 {
		t.Fatalf("decoded up to %d, want %d", want-1, n+1)
	}
}

// TestReadTailBudget: the byte budget stops the stream after the record that
// crosses it, and the cursor-resume contract still drains everything.
func TestReadTailBudget(t *testing.T) {
	const n = 40
	l := streamTestLog(t, n)
	var got []uint64
	after := uint64(0)
	for i := 0; ; i++ {
		var buf bytes.Buffer
		last, records, err := l.ReadTail(after, 64, &buf) // a few frames per call
		if err != nil {
			t.Fatalf("ReadTail(after=%d): %v", after, err)
		}
		if records == 0 {
			break
		}
		if err := ReadFrames(&buf, func(seq uint64, _ []byte) error {
			got = append(got, seq)
			return nil
		}); err != nil {
			t.Fatalf("ReadFrames: %v", err)
		}
		after = last
		if i > n {
			t.Fatal("budgeted tail never drained")
		}
	}
	if len(got) != n {
		t.Fatalf("drained %d records, want %d", len(got), n)
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, seq)
		}
	}
}

// TestReadTailCompacted: a cursor before the oldest retained segment reports
// ErrCompacted instead of silently skipping records.
func TestReadTailCompacted(t *testing.T) {
	l := streamTestLog(t, 60)
	if _, err := l.RemoveSegmentsCoveredBy(40); err != nil {
		t.Fatalf("RemoveSegmentsCoveredBy: %v", err)
	}
	segs, err := l.Segments()
	if err != nil || len(segs) == 0 {
		t.Fatalf("Segments: %v (%d)", err, len(segs))
	}
	first := segs[0].FirstSeq
	if first <= 1 {
		t.Skip("compaction retained everything; nothing to assert")
	}
	if _, _, err := l.ReadTail(0, 1<<20, io.Discard); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadTail(0) err = %v, want ErrCompacted", err)
	}
	// Exactly at the boundary the tail is still serveable.
	if _, _, err := l.ReadTail(first-1, 1<<20, io.Discard); err != nil {
		t.Fatalf("ReadTail(%d) err = %v", first-1, err)
	}
}

// TestReplayCompactedCursor: Replay owns the compacted-cursor check that
// recovery and ReadTail share. A cursor before the oldest retained segment
// returns ErrCompacted before fn sees any record; at the boundary the rest of
// the log replays.
func TestReplayCompactedCursor(t *testing.T) {
	l := streamTestLog(t, 60)
	if _, err := l.RemoveSegmentsCoveredBy(40); err != nil {
		t.Fatalf("RemoveSegmentsCoveredBy: %v", err)
	}
	segs, err := l.Segments()
	if err != nil || len(segs) == 0 || segs[0].FirstSeq <= 1 {
		t.Fatalf("Segments: %v (%+v); the test needs a compacted log", err, segs)
	}
	first := segs[0].FirstSeq
	calls := 0
	count := func(uint64, []byte) error { calls++; return nil }
	if err := l.Replay(0, count); !errors.Is(err, ErrCompacted) || calls != 0 {
		t.Fatalf("Replay(0) = %v after %d records, want ErrCompacted after none", err, calls)
	}
	if err := l.Replay(first-1, count); err != nil || calls != 60-int(first-1) {
		t.Fatalf("Replay(%d) = %v after %d records, want %d", first-1, err, calls, 60-int(first-1))
	}
}

// TestReadFramesStrict: a truncated network body is an error, never a clean
// end — the follower must refetch, not partially apply.
func TestReadFramesStrict(t *testing.T) {
	l := streamTestLog(t, 5)
	var buf bytes.Buffer
	if _, _, err := l.ReadTail(0, 1<<20, &buf); err != nil {
		t.Fatalf("ReadTail: %v", err)
	}
	torn := buf.Bytes()[:buf.Len()-3]
	err := ReadFrames(bytes.NewReader(torn), func(uint64, []byte) error { return nil })
	if err == nil {
		t.Fatal("ReadFrames on a torn body should fail")
	}
}
