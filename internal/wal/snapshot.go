package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/storage"
)

// A snapshot file is a stream of CRC frames (the log's framing), every one
// carrying the last log sequence the snapshot covers:
//
//	frame 0       header: next ID and how many records, edges and checkpoint
//	              sections follow
//	frames 1..    record chunks, about snapshotChunkBytes each, in insertion
//	              order, until the header's record count is reached
//	then          edge chunks, until the header's edge count is reached (only
//	              in a snapshot an older build wrote; they are checked and
//	              dropped, and this build writes an edge count of 0)
//	then          one checkpoint section per derived-state subscriber, cut
//	              into parts of at most snapshotChunkBytes
//
// The payloads are storage's (storage/snapshot.go); this file frames them.
// Writing and reading both go chunk by chunk, so neither ever holds an
// encoded copy of the store. Snapshots are written to a temporary file and
// renamed into place, so a crash mid-snapshot leaves the previous one intact.
// Because every frame is CRC-checked on its own, damage in the checkpoint
// tail of a file costs only the sections at and after it — recovery rebuilds
// those subscribers — while damage anywhere before it makes the snapshot
// unreadable and recovery falls back to the next older one.

// snapshotChunkBytes is the payload size at which the writer closes a chunk,
// and the most checkpoint data it puts in one frame. A chunk overshoots it by
// at most one record.
const snapshotChunkBytes = 256 << 10

// SidecarInfo describes one checkpoint section without its payload.
type SidecarInfo struct {
	Name    string
	Version int
	Bytes   int
}

// SnapshotInfo describes one snapshot file for the admin API.
type SnapshotInfo struct {
	Name    string
	Seq     uint64
	Bytes   int64
	Records int
	// Frames counts every frame in the file: header, chunks and sections.
	Frames   int
	Sidecars []SidecarInfo
	// Error is set instead of the counts when the file does not read back.
	Error string
}

// Snapshot is a snapshot read back: the staged store state and the
// checkpoint sections that came with it. Nothing in it is installed
// anywhere yet.
type Snapshot struct {
	Seq         uint64
	State       *storage.StoreState
	Checkpoints []storage.SubscriberCheckpoint
	Info        SnapshotInfo
}

func snapshotName(seq uint64) string {
	return seqFileName(snapshotPrefix, seq, snapshotSuffix)
}

func parseSnapshotName(name string) (uint64, bool) {
	return parseSeqFileName(name, snapshotPrefix, snapshotSuffix)
}

// WriteSnapshot durably writes a snapshot of st covering all log records
// with sequence <= seq, followed by the checkpoint sections, and returns its
// path. st is only read. No frame larger than maxPayloadBytes is ever
// written: records go out in bounded chunks, checkpoint sections
// in bounded parts, and a single record over the bound — which the store's
// admission check (storage.MaxRecordBytes) does not let in — fails the
// snapshot rather than produce a frame its reader would reject.
func WriteSnapshot(dir string, seq uint64, st *storage.StoreState, cps []storage.SubscriberCheckpoint) (string, SnapshotInfo, error) {
	path := filepath.Join(dir, snapshotName(seq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", SnapshotInfo{}, fmt.Errorf("wal: writing snapshot: %w", err)
	}
	info, werr := writeSnapshotStream(f, seq, st, cps)
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

func writeSnapshotStream(w io.Writer, seq uint64, st *storage.StoreState, cps []storage.SubscriberCheckpoint) (SnapshotInfo, error) {
	info := SnapshotInfo{Seq: seq, Records: len(st.Records)}
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

	payload = storage.AppendSnapshotHeader(payload[:0], storage.SnapshotHeader{
		NextID: st.NextID, Records: len(st.Records), Checkpoints: len(cps),
	})
	if err := emit(); err != nil {
		return info, err
	}
	var enc storage.Encoder
	for recs := st.Records; len(recs) > 0; {
		var n int
		payload, n = enc.AppendRecordChunk(payload[:0], recs, snapshotChunkBytes)
		if err := emit(); err != nil {
			return info, err
		}
		recs = recs[n:]
	}
	for _, cp := range cps {
		parts := max(1, (len(cp.Data)+snapshotChunkBytes-1)/snapshotChunkBytes)
		for data := cp.Data; parts > 0; parts-- {
			n := min(len(data), snapshotChunkBytes)
			payload = storage.AppendCheckpointPart(payload[:0], cp.Name, cp.Version, parts-1, data[:n])
			if err := emit(); err != nil {
				return info, err
			}
			data = data[n:]
		}
		info.Sidecars = append(info.Sidecars, SidecarInfo{Name: cp.Name, Version: cp.Version, Bytes: len(cp.Data)})
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
// lengths, CRCs, sequences and the chunk counts against the header. strict
// is for a stream that must be whole (a network transfer, or a file about to
// justify deleting log segments): every announced checkpoint section must be
// there and nothing may follow. Without strict a damaged checkpoint tail is
// dropped instead — see the file comment.
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
	st := &storage.StoreState{NextID: h.NextID}
	if decode {
		// A header can claim any count; let a false one cost nothing up front.
		st.Records = make([]*storage.QueryRecord, 0, min(h.Records, 1<<16))
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
	for records, edges := 0, 0; records < h.Records || edges < h.Edges; {
		p, err := next()
		if err != nil {
			return nil, fmt.Errorf("after %d of %d records and %d of %d edges: %w", records, h.Records, edges, h.Edges, err)
		}
		isRecords, n, err := storage.ChunkCount(p)
		if err != nil {
			return nil, err
		}
		switch {
		case n == 0:
			return nil, errors.New("empty chunk")
		case isRecords && (edges > 0 || records+n > h.Records):
			return nil, fmt.Errorf("a chunk of %d records after %d of %d records and %d edges", n, records, h.Records, edges)
		case !isRecords && (records < h.Records || edges+n > h.Edges):
			return nil, fmt.Errorf("a chunk of %d edges after %d of %d records and %d of %d edges", n, records, h.Records, edges, h.Edges)
		case isRecords:
			records += n
			if decode {
				st.Records, err = storage.DecodeRecordChunk(p, st.Records)
			}
		default:
			edges += n
			if decode {
				err = storage.SkipEdgeChunk(p)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < h.Checkpoints; i++ {
		cp, size, err := readSection(next, decode)
		if err != nil {
			if strict {
				return nil, fmt.Errorf("checkpoint section %d of %d: %w", i, h.Checkpoints, err)
			}
			return snap, nil
		}
		if decode {
			snap.Checkpoints = append(snap.Checkpoints, cp)
		}
		snap.Info.Sidecars = append(snap.Info.Sidecars, SidecarInfo{Name: cp.Name, Version: cp.Version, Bytes: size})
	}
	if strict {
		if _, _, _, err := fr.next(); err != io.EOF {
			return nil, errors.New("frames after the last announced section")
		}
	}
	return snap, nil
}

// readSection reads the parts of one checkpoint section and returns it with
// its data size. With keep the parts are joined into Data (copied: the frame
// buffer is reused); without, only counted. Every part must name the same
// subscriber and version and count down to zero, so a part of another section
// — or a missing one — fails the section instead of being spliced into it.
func readSection(next func() ([]byte, error), keep bool) (cp storage.SubscriberCheckpoint, size int, err error) {
	for first, want := true, 0; ; first, want = false, want-1 {
		p, err := next()
		if err != nil {
			return cp, 0, err
		}
		part, left, err := storage.DecodeCheckpointPart(p)
		if err != nil {
			return cp, 0, err
		}
		switch {
		case first:
			cp, want = storage.SubscriberCheckpoint{Name: part.Name, Version: part.Version, Data: []byte{}}, left
		case part.Name != cp.Name || part.Version != cp.Version || left != want:
			return cp, 0, fmt.Errorf("part of %q v%d with %d left inside %q v%d with %d left",
				part.Name, part.Version, left, cp.Name, cp.Version, want)
		}
		size += len(part.Data)
		if keep {
			cp.Data = append(cp.Data, part.Data...)
		}
		if left == 0 {
			return cp, size, nil
		}
	}
}

// readSnapshotFile reads one snapshot file the way recovery does: decoded,
// tolerant of a damaged checkpoint tail.
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
// CRCs, sequences, chunk counts against the header, every announced section
// present, nothing after — and reports what it holds.
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
	names, err := listSnapshots(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		snap, err := readSnapshotFile(filepath.Join(dir, names[i]))
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
	names, err := listSnapshots(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, name := range names {
		s, _ := parseSnapshotName(name)
		if s >= seq {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return removed, fmt.Errorf("wal: pruning snapshots: %w", err)
		}
		removed++
	}
	return removed, nil
}

// listSnapshots returns snapshot file names sorted by ascending sequence.
func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := parseSnapshotName(e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := parseSnapshotName(out[i])
		b, _ := parseSnapshotName(out[j])
		return a < b
	})
	return out, nil
}
