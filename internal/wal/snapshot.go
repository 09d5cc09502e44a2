package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/storage"
)

// A snapshot file is a stream of CRC frames (the log's framing), every one
// carrying the last log sequence the snapshot covers:
//
//	frame 0       header: next ID, the record count, the shape count, the
//	              shape counter and the sample counter
//	frames 1..    shape chunks, about snapshotChunkBytes each, in ascending
//	              shape number, until the header's shape count is reached
//	then          record chunks in ID order, each record naming its shape by
//	              number and defining its sample at the sample's first
//	              record, until the header's record count is reached
//
// and nothing after. FORMAT.md specifies the bytes; an older build's snapshot
// is read only by the upgrade at open (upgrade.go).
//
// The payloads are storage's (storage/snapshot.go); this file frames them.
// Writing and reading both go chunk by chunk, so neither ever holds an
// encoded copy of the store. Snapshots are written to a temporary file and
// renamed into place, so a crash mid-snapshot leaves the previous one intact.
// Every frame is CRC-checked on its own: damage anywhere makes the snapshot
// unreadable, and recovery falls back to the next older one.

// snapshotChunkBytes is the payload size at which the writer closes a chunk.
// A chunk overshoots it by at most one record.
const snapshotChunkBytes = 256 << 10

// SnapshotInfo describes one snapshot file for the admin API.
type SnapshotInfo struct {
	Name    string
	Seq     uint64
	Bytes   int64
	Records int
	// Frames counts every frame in the file: header and chunks (and, in an
	// older build's snapshot, edge chunks and section parts).
	Frames int
	// Error is set instead of the counts when the file does not read back.
	Error string
}

// Snapshot is a snapshot read back: the staged store state. Nothing in it is
// installed anywhere yet.
type Snapshot struct {
	Seq   uint64
	State *storage.StoreState
	Info  SnapshotInfo
	// older is set on a snapshot an older build wrote (upgrade.go).
	older bool
}

func snapshotName(seq uint64) string {
	return seqFileName(snapshotPrefix, seq, snapshotSuffix)
}

// WriteSnapshot durably writes a snapshot of st covering all log records
// with sequence <= seq and returns its path. st is only read. No frame larger
// than maxPayloadBytes is ever written: records go out in bounded chunks, and
// a single record over the bound — which the store's admission check
// (storage.MaxRecordBytes) does not let in — fails the snapshot rather than
// produce a frame its reader would reject.
func WriteSnapshot(dir string, seq uint64, st *storage.StoreState) (string, SnapshotInfo, error) {
	path := filepath.Join(dir, snapshotName(seq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", SnapshotInfo{}, fmt.Errorf("wal: writing snapshot: %w", err)
	}
	info, werr := writeSnapshotStream(f, seq, st)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return "", SnapshotInfo{}, fmt.Errorf("wal: writing snapshot: %w", werr)
	}
	syncDir(dir)
	info.Name = filepath.Base(path)
	return path, info, nil
}

func writeSnapshotStream(w io.Writer, seq uint64, st *storage.StoreState) (SnapshotInfo, error) {
	info := SnapshotInfo{Seq: seq, Records: len(st.Records)}
	for _, rec := range st.Records {
		if rec.Number() == 0 {
			// Its chunk would not read back: st is not a store's capture.
			return info, fmt.Errorf("query %d has a shape no store numbered", rec.ID)
		}
	}
	var payload, frame []byte
	emit := func() error {
		if len(payload) > maxPayloadBytes {
			return fmt.Errorf("a %d-byte frame exceeds the %d-byte limit", len(payload), maxPayloadBytes)
		}
		frame = appendFrame(frame[:0], seq, payload)
		n, err := w.Write(frame)
		info.Frames++
		info.Bytes += int64(n)
		return err
	}

	var enc storage.Encoder
	payload = enc.AppendSnapshotHeader(payload[:0], st)
	if err := emit(); err != nil {
		return info, err
	}
	for shapes := st.Shapes; len(shapes) > 0; {
		var n int
		payload, n = enc.AppendShapeChunk(payload[:0], shapes, snapshotChunkBytes)
		if err := emit(); err != nil {
			return info, err
		}
		shapes = shapes[n:]
	}
	for recs := st.Records; len(recs) > 0; {
		var n int
		payload, n = enc.AppendRecordChunk(payload[:0], recs, snapshotChunkBytes)
		if err := emit(); err != nil {
			return info, err
		}
		recs = recs[n:]
	}
	return info, nil
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// snapshotStream reads the frames of one snapshot stream: the header's, then
// the rest, each of which must carry the header's sequence.
type snapshotStream struct {
	fr   *frameReader
	snap *Snapshot
}

// openSnapshotStream reads the header frame and returns its payload.
func openSnapshotStream(r io.Reader) (*snapshotStream, []byte, error) {
	fr := newFrameReader(r)
	seq, p, frameLen, err := fr.next()
	if err != nil {
		return nil, nil, fmt.Errorf("header frame: %w", err)
	}
	return &snapshotStream{fr: fr, snap: &Snapshot{Seq: seq, Info: SnapshotInfo{Seq: seq, Frames: 1, Bytes: frameLen}}}, p, nil
}

// next reads the next frame's payload; it returns io.EOF at a clean end.
func (s *snapshotStream) next() ([]byte, error) {
	seq, p, frameLen, err := s.fr.next()
	if err != nil {
		return nil, err
	}
	if seq != s.snap.Seq {
		return nil, fmt.Errorf("frame %d carries sequence %d, the snapshot's is %d", s.snap.Info.Frames, seq, s.snap.Seq)
	}
	s.snap.Info.Frames++
	s.snap.Info.Bytes += frameLen
	return p, nil
}

// stage returns the state the header h announces, to be filled by its
// chunks: the snapshot's State when decode is set.
func (s *snapshotStream) stage(h storage.SnapshotHeader, decode bool) *storage.StoreState {
	s.snap.Info.Records = h.Records
	st := &storage.StoreState{NextID: h.NextID, NextShape: h.NextShape, NextSample: h.NextSample}
	if decode {
		// A header can claim any count; let a false one cost nothing up front.
		st.Records = make([]*storage.QueryRecord, 0, min(h.Records, 1<<16))
		st.Shapes = make([]*storage.QueryShape, 0, min(h.Shapes, 1<<16))
		s.snap.State = st
	}
	return st
}

// chunks reads the shape chunks, then the record chunks of the given kind,
// that h announces, each chunk's kind and count read with count: each kind
// may not run past its count, and no record chunk may come before the last
// shape chunk. With decode it stages them in st, the record chunks decoded
// by decode; without, it only checks frame lengths, CRCs, sequences and the
// chunk counts.
func (s *snapshotStream) chunks(h storage.SnapshotHeader, st *storage.StoreState, count func([]byte) (storage.ChunkKind, int, error), records storage.ChunkKind, decode func([]byte, *storage.StoreState) error) error {
	for shapes, recs := 0, 0; shapes < h.Shapes || recs < h.Records; {
		p, err := s.next()
		if err != nil {
			return fmt.Errorf("after %d of %d shapes and %d of %d records: %w", shapes, h.Shapes, recs, h.Records, err)
		}
		kind, n, err := count(p)
		if err != nil {
			return err
		}
		switch {
		case n == 0:
			return errors.New("empty chunk")
		case kind == storage.ChunkShapes && shapes+n <= h.Shapes:
			shapes += n
			if decode != nil {
				err = storage.DecodeShapeChunk(p, st)
			}
		case kind == records && shapes == h.Shapes && recs+n <= h.Records:
			recs += n
			if decode != nil {
				err = decode(p, st)
			}
		default:
			return fmt.Errorf("a chunk of kind %d holding %d after %d of %d shapes and %d of %d records", kind, n, shapes, h.Shapes, recs, h.Records)
		}
		if err != nil {
			return err
		}
	}
	return st.CheckShapesUsed() // nothing to check unless decoded
}

// readSnapshotStream walks one snapshot stream to its last frame, refusing
// anything after it. With decode (storage.DecodeRecordChunk) it stages the
// records; without, it only checks the frames and the chunk counts against
// the header. An older build's snapshot fails with storage.ErrOlderFormat.
func readSnapshotStream(r io.Reader, decode func([]byte, *storage.StoreState) error) (*Snapshot, error) {
	s, p, err := openSnapshotStream(r)
	if err != nil {
		return nil, err
	}
	h, err := storage.DecodeSnapshotHeader(p)
	if err != nil {
		return nil, fmt.Errorf("sequence %d: %w", s.snap.Seq, err)
	}
	if err := s.chunks(h, s.stage(h, decode != nil), storage.ChunkCount, storage.ChunkRecords, decode); err != nil {
		return nil, err
	}
	if _, err := s.next(); err != io.EOF {
		return nil, errors.New("frames after the last chunk")
	}
	return s.snap, nil
}

func decodeSnapshot(r io.Reader) (*Snapshot, error) {
	return readSnapshotStream(r, storage.DecodeRecordChunk)
}

func walkSnapshot(r io.Reader) (*Snapshot, error) { return readSnapshotStream(r, nil) }

// readSnapshotFile reads one snapshot file with read, naming the file in an
// error.
func readSnapshotFile(path string, read func(io.Reader) (*Snapshot, error)) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := read(f)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", filepath.Base(path), err)
	}
	snap.Info.Name = filepath.Base(path)
	return snap, nil
}

// VerifySnapshot walks a snapshot file without decoding it — frame lengths,
// CRCs, sequences, chunk counts against the header, nothing after — and
// reports what it holds.
func VerifySnapshot(path string) (SnapshotInfo, error) {
	snap, err := readSnapshotFile(path, walkSnapshot)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return snap.Info, nil
}

// latestSnapshot reads the newest readable snapshot in dir with read; it
// returns nil when there is none. A snapshot that does not read back is
// skipped in favour of the next older one, except a JSON-era snapshot and an
// older build's, each an error naming the file (Open upgrades a directory
// that holds an older build's snapshot).
func latestSnapshot(dir string, read func(path string) (*Snapshot, error)) (*Snapshot, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		snap, err := read(filepath.Join(dir, snaps[i].Name))
		if err == nil {
			return snap, nil
		}
		if errors.Is(err, storage.ErrPreBinaryPayload) || errors.Is(err, storage.ErrOlderFormat) {
			return nil, err
		}
	}
	return nil, nil
}

// RemoveSnapshotsBefore deletes snapshots older than seq, returning how many
// were removed.
func RemoveSnapshotsBefore(dir string, seq uint64) (int, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, snap := range snaps {
		if snap.FirstSeq >= seq {
			break
		}
		if err := os.Remove(filepath.Join(dir, snap.Name)); err != nil {
			return removed, fmt.Errorf("wal: pruning snapshots: %w", err)
		}
		removed++
	}
	return removed, nil
}

// listSnapshots lists the snapshot files in ascending sequence; an entry's
// FirstSeq is the last log sequence the snapshot covers.
func listSnapshots(dir string) ([]SegmentInfo, error) {
	return listSeqFiles(dir, snapshotPrefix, snapshotSuffix)
}
