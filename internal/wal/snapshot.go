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
// An older build's snapshot has another header, record chunks whose records
// carry their shapes, then session edge chunks and checkpoint sections, each
// section cut into one or more parts. Its edge chunks are checked and
// dropped, and its sections are checked part by part and skipped; every
// derived-state subscriber rebuilds from the records. FORMAT.md specifies
// the bytes.
//
// The payloads are storage's (storage/snapshot.go); this file frames them.
// Writing and reading both go chunk by chunk, so neither ever holds an
// encoded copy of the store. Snapshots are written to a temporary file and
// renamed into place, so a crash mid-snapshot leaves the previous one intact.
// Because every frame is CRC-checked on its own, damage in an older file's
// section tail costs nothing recovery needs, while damage anywhere before it
// makes the snapshot unreadable and recovery falls back to the next older
// one.

// snapshotChunkBytes is the payload size at which the writer closes a chunk.
// A chunk overshoots it by at most one record.
const snapshotChunkBytes = 256 << 10

// SnapshotInfo describes one snapshot file for the admin API.
type SnapshotInfo struct {
	Name    string
	Seq     uint64
	Bytes   int64
	Records int
	// Frames counts every frame in the file: header, chunks and, in an older
	// snapshot, section parts.
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

// readSnapshotStream walks one snapshot stream to its last frame. With
// decode it stages the records; without, it only checks frame
// lengths, CRCs, sequences and the chunk counts against the header. An older
// snapshot's checkpoint sections are checked and skipped either way. strict
// is for a stream that must be whole (a network transfer, or a file about to
// justify deleting log segments): every announced section must be there and
// nothing may follow. Without strict a damaged section tail is dropped
// instead — see the file comment.
func readSnapshotStream(r io.Reader, decode, strict bool) (*Snapshot, error) {
	fr := newFrameReader(r)
	seq, p, frameLen, err := fr.next()
	if err != nil {
		return nil, fmt.Errorf("header frame: %w", err)
	}
	h, err := storage.DecodeSnapshotHeader(p)
	if err != nil {
		if errors.Is(err, storage.ErrPreBinaryPayload) {
			err = fmt.Errorf("sequence %d: %w", seq, err)
		}
		return nil, err
	}
	snap := &Snapshot{Seq: seq, Info: SnapshotInfo{Seq: seq, Records: h.Records, Frames: 1, Bytes: frameLen}}
	st := &storage.StoreState{NextID: h.NextID, NextShape: h.NextShape, NextSample: h.NextSample}
	if decode {
		// A header can claim any count; let a false one cost nothing up front.
		st.Records = make([]*storage.QueryRecord, 0, min(h.Records, 1<<16))
		st.Shapes = make([]*storage.QueryShape, 0, min(h.Shapes, 1<<16))
		snap.State = st
	}
	next := func() ([]byte, error) {
		fseq, p, frameLen, err := fr.next()
		if err != nil {
			return nil, err
		}
		if fseq != seq {
			return nil, fmt.Errorf("frame %d carries sequence %d, the snapshot's is %d", snap.Info.Frames, fseq, seq)
		}
		snap.Info.Frames++
		snap.Info.Bytes += frameLen
		return p, nil
	}
	// The chunks come in the order of the header's counts: shapes, records,
	// then (in an older build's snapshot) edges. Each kind must be the one
	// the header's format has, and may not run past its count or start
	// before the kind ahead of it is complete.
	records := storage.ChunkRecords
	if !h.Numbered {
		records = storage.ChunkParentRecords
	}
	for shapes, recs, edges := 0, 0, 0; shapes < h.Shapes || recs < h.Records || edges < h.Edges; {
		p, err := next()
		if err != nil {
			return nil, fmt.Errorf("after %d of %d shapes, %d of %d records and %d of %d edges: %w", shapes, h.Shapes, recs, h.Records, edges, h.Edges, err)
		}
		kind, n, err := storage.ChunkCount(p)
		if err != nil {
			return nil, err
		}
		switch {
		case n == 0:
			return nil, errors.New("empty chunk")
		case kind == storage.ChunkShapes && h.Numbered && shapes+n <= h.Shapes:
			shapes += n
			if decode {
				err = storage.DecodeShapeChunk(p, st)
			}
		case kind == records && shapes == h.Shapes && recs+n <= h.Records:
			recs += n
			if decode {
				err = storage.DecodeRecordChunk(p, st)
			}
		case kind == storage.ChunkEdges && recs == h.Records && edges+n <= h.Edges:
			edges += n
			if decode {
				err = storage.SkipEdgeChunk(p)
			}
		default:
			return nil, fmt.Errorf("a chunk of kind %d holding %d after %d of %d shapes, %d of %d records and %d of %d edges", kind, n, shapes, h.Shapes, recs, h.Records, edges, h.Edges)
		}
		if err != nil {
			return nil, err
		}
	}
	if decode {
		if err := st.CheckShapesUsed(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < h.Checkpoints; i++ {
		if err := skipSection(next); err != nil {
			if strict {
				return nil, fmt.Errorf("checkpoint section %d of %d: %w", i, h.Checkpoints, err)
			}
			return snap, nil
		}
	}
	if strict {
		if _, _, _, err := fr.next(); err != io.EOF {
			return nil, errors.New("frames after the last announced section")
		}
	}
	return snap, nil
}

// skipSection reads the parts of one of an older snapshot's checkpoint
// sections and drops them. Every part must name the same subscriber and
// version and count down to zero, so a part of another section — or a
// missing one — fails the section instead of being spliced into it.
func skipSection(next func() ([]byte, error)) error {
	part := func() (storage.CheckpointPart, error) {
		p, err := next()
		if err != nil {
			return storage.CheckpointPart{}, err
		}
		return storage.DecodeCheckpointPart(p)
	}
	first, err := part()
	for left := first.Left; err == nil && left > 0; left-- {
		var p storage.CheckpointPart
		if p, err = part(); err == nil && (p.Name != first.Name || p.Version != first.Version || p.Left != left-1) {
			err = fmt.Errorf("part of %q v%d with %d left inside %q v%d with %d left",
				p.Name, p.Version, p.Left, first.Name, first.Version, left-1)
		}
	}
	return err
}

// readSnapshotFile reads one snapshot file the way recovery does: decoded,
// tolerant of a damaged section tail.
func readSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := readSnapshotStream(f, true, false)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", filepath.Base(path), err)
	}
	snap.Info.Name = filepath.Base(path)
	return snap, nil
}

// VerifySnapshot walks a snapshot file without decoding it — frame lengths,
// CRCs, sequences, chunk counts against the header, every section an older
// build announced present, nothing after — and reports what it holds.
func VerifySnapshot(path string) (SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return SnapshotInfo{}, err
	}
	defer f.Close()
	return verifySnapshot(f, filepath.Base(path))
}

func verifySnapshot(r io.Reader, name string) (SnapshotInfo, error) {
	snap, err := readSnapshotStream(r, false, true)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("wal: snapshot %s: %w", name, err)
	}
	snap.Info.Name = name
	return snap.Info, nil
}

// LatestSnapshot loads the newest readable snapshot in dir; it returns nil
// when there is none. A snapshot that does not read back is skipped in
// favour of the next older one, except a JSON-era snapshot, which is an
// error naming the file: no older snapshot or log tail next to it could be
// read either.
func LatestSnapshot(dir string) (*Snapshot, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		snap, err := readSnapshotFile(filepath.Join(dir, snaps[i].Name))
		if err == nil {
			return snap, nil
		}
		if errors.Is(err, storage.ErrPreBinaryPayload) {
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
