package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Replication streaming: the primary serves its log tail and newest snapshot
// as raw CRC frames (exactly the on-disk framing, see appendFrame), so a
// follower can bootstrap from the snapshot and then pull records with
// sequence > its applied cursor. The sequence number is the resume cursor:
// a response's last frame sequence is passed back verbatim as the next
// request's `after`, mirroring the v1 pagination contract's opaque-cursor
// round-trip.

// ErrCompacted reports that records at the requested cursor have been
// compacted away; the caller must re-bootstrap from a newer snapshot.
var ErrCompacted = errors.New("wal: records at cursor compacted away; bootstrap from a newer snapshot")

// errTailFull ends a ReadTail walk once the byte budget is spent.
var errTailFull = errors.New("wal: tail budget exhausted")

// ReadTail writes every record with sequence > after, in order, to w as CRC
// frames, stopping after the record that crosses maxBytes (so at least one
// record is always sent when any is available; frames are never split). It
// returns the last sequence written and the number of records. It is Replay
// with a frame-writing callback, so it shares Replay's contract: a torn tail
// in the newest segment ends the read cleanly, a compacted cursor returns an
// error matching ErrCompacted, and the I/O lock is held for the duration, so
// keep maxBytes bounded.
func (l *Log) ReadTail(after uint64, maxBytes int64, w io.Writer) (last uint64, records int, err error) {
	var (
		sent int64
		buf  []byte
	)
	err = l.Replay(after, func(seq uint64, payload []byte) error {
		buf = appendFrame(buf[:0], seq, payload)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		last, records = seq, records+1
		if sent += int64(len(buf)); sent >= maxBytes {
			return errTailFull
		}
		return nil
	})
	if errors.Is(err, errTailFull) {
		err = nil
	}
	return last, records, err
}

// ReadFrames decodes a stream of CRC frames (a ReadTail response body) and
// hands each record to fn in order; the payload is valid only during the
// call. A clean EOF ends the stream; a partial or corrupt frame is an error —
// over the network there is no torn-tail tolerance, a damaged stream must be
// refetched.
func ReadFrames(r io.Reader, fn func(seq uint64, payload []byte) error) error {
	_, err := readFrames(r, fn)
	if errors.Is(err, errTorn) {
		return fmt.Errorf("wal: replication stream: %w", err)
	}
	return err
}

// ReadSnapshot reads a streamed snapshot (the bytes of a snapshot file) chunk
// by chunk and returns it staged. A torn or foreign frame anywhere or a count
// that disagrees with the header is an error, because a network transfer
// that tears mid-body must be retried, not partially applied — and since
// nothing is installed until the caller acts on the result, a failed
// transfer leaves the follower's store untouched. An older build's snapshot
// fails with storage.ErrOlderFormat: its primary upgrades its directory when
// it opens it, and the follower bootstraps again from that primary.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	snap, err := decodeSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("wal: replication snapshot: %w", err)
	}
	return snap, nil
}

// LastSeq returns the highest WAL sequence assigned to an appended mutation.
func (m *Manager) LastSeq() uint64 { return m.log.LastSeq() }

// SnapshotSeq returns the log sequence covered by the newest snapshot taken
// by this manager (0 before the first snapshot).
func (m *Manager) SnapshotSeq() uint64 { return m.snapshotSeq.Load() }

// ReadTail streams CRC-framed records with sequence > after to w; see
// Log.ReadTail for the contract.
func (m *Manager) ReadTail(after uint64, maxBytes int64, w io.Writer) (uint64, int, error) {
	return m.log.ReadTail(after, maxBytes, w)
}

// OpenLatestSnapshot opens the newest snapshot document for streaming; see
// the package OpenLatestSnapshot function for the contract.
func (m *Manager) OpenLatestSnapshot() (io.ReadCloser, uint64, bool, error) {
	return OpenLatestSnapshot(m.cfg.Dir)
}

// OpenLatestSnapshot opens the newest snapshot that verifies end to end (see
// VerifySnapshot) for streaming and returns the log sequence it covers, so a
// caller can announce the sequence before sending the body. ok is false when
// no snapshot exists yet (the follower then replays the whole log from
// sequence 0). A snapshot that fails verification is skipped in favour of
// the next older one, except a JSON-era snapshot and an older build's, each
// an error naming the file; the returned handle stays readable even if
// compaction unlinks the file mid-transfer.
func OpenLatestSnapshot(dir string) (io.ReadCloser, uint64, bool, error) {
	var f *os.File
	snap, err := latestSnapshot(dir, func(path string) (snap *Snapshot, err error) {
		if f, err = os.Open(path); err != nil {
			return nil, err // compacted away between listing and open
		}
		if snap, err = walkSnapshot(f); err == nil {
			_, err = f.Seek(0, io.SeekStart)
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: snapshot %s: %w", filepath.Base(path), err)
		}
		return snap, nil
	})
	if snap == nil {
		return nil, 0, false, err
	}
	// The body's sequence, not the name's: it is what the follower checks
	// the announced sequence against.
	return f, snap.Seq, true, nil
}
