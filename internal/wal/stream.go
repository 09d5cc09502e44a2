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

// errTailFull ends a ReadTail segment walk once the byte budget is spent.
var errTailFull = errors.New("wal: tail budget exhausted")

// ReadTail writes every record with sequence > after, in order, to w as CRC
// frames, stopping after the record that crosses maxBytes (so at least one
// record is always sent when any is available; frames are never split). It
// returns the last sequence written and the number of records. A torn tail
// in the newest segment ends the read cleanly, like Replay. If the records
// just past the cursor have been compacted away it returns ErrCompacted.
// Like Replay, pending appends are drained first and the I/O lock is held
// for the duration, so keep maxBytes bounded.
func (l *Log) ReadTail(after uint64, maxBytes int64, w io.Writer) (last uint64, records int, err error) {
	if err := l.waitWritten(); err != nil {
		return 0, 0, err
	}
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	segs, err := listSegments(l.dir)
	if err != nil {
		return 0, 0, err
	}
	if len(segs) > 0 && segs[0].FirstSeq > after+1 {
		return 0, 0, ErrCompacted
	}
	var (
		sent int64
		buf  []byte
	)
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].FirstSeq-1 <= after {
			continue // every record here is at or before the cursor
		}
		isNewest := i == len(segs)-1
		err := readSegment(filepath.Join(l.dir, seg.Name), func(seq uint64, payload []byte) error {
			if seq <= after {
				return nil
			}
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
			return last, records, nil
		}
		if errors.Is(err, errTorn) {
			if isNewest {
				return last, records, nil
			}
			return last, records, fmt.Errorf("wal: segment %s: %w", seg.Name, err)
		}
		if err != nil {
			return last, records, err
		}
	}
	return last, records, nil
}

// ReadFrames decodes a stream of CRC frames (a ReadTail response body) and
// hands each record to fn in order; the payload is valid only during the
// call. A clean EOF ends the stream; a partial or corrupt frame is an error —
// over the network there is no torn-tail tolerance, a damaged stream must be
// refetched.
func ReadFrames(r io.Reader, fn func(seq uint64, payload []byte) error) error {
	fr := newFrameReader(r)
	for {
		seq, payload, _, err := fr.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("wal: replication stream: %w", err)
		}
		if err := fn(seq, payload); err != nil {
			return err
		}
	}
}

// ReadSnapshot reads a streamed snapshot (the bytes of a snapshot file) chunk
// by chunk and returns it staged. Unlike the on-disk reader it is strict: a
// torn or foreign frame anywhere, a count that disagrees with the header or a
// missing section is an error, because a network transfer that
// tears mid-body must be retried, not partially applied — and since nothing
// is installed until the caller acts on the result, a failed transfer leaves
// the follower's store untouched.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	snap, err := readSnapshotStream(r, true, true)
	if err != nil {
		return nil, fmt.Errorf("wal: replication snapshot: %w", err)
	}
	return snap, nil
}

// LastSeq returns the highest WAL sequence assigned to an appended mutation.
func (m *Manager) LastSeq() uint64 { return m.lastSeq.Load() }

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
// the next older one; the returned handle stays readable even if compaction
// unlinks the file mid-transfer.
func OpenLatestSnapshot(dir string) (r io.ReadCloser, seq uint64, ok bool, err error) {
	names, err := listSnapshots(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, false, nil
		}
		return nil, 0, false, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		f, err := os.Open(filepath.Join(dir, names[i]))
		if err != nil {
			continue // compacted away between listing and open
		}
		info, err := verifySnapshot(f, names[i])
		if err == nil {
			_, err = f.Seek(0, io.SeekStart)
		}
		if err != nil {
			f.Close()
			continue // corrupt snapshot: fall back to an older one
		}
		return f, info.Seq, true, nil
	}
	return nil, 0, false, nil
}
