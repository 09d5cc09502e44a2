package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/wire"
)

// StoreState is the full serialisable state of a Store: every record in ID
// order and the ID counter. It is what the WAL subsystem streams out as a
// snapshot and what recovery stages before replaying the log tail; the
// inverted indexes are derived state and are rebuilt on restore.
type StoreState struct {
	NextID  QueryID        `json:"nextId"`
	Records []*QueryRecord `json:"records"`
}

// State returns a deep copy of the store's state: the in-memory test API,
// safe to hand to another store's RestoreState.
func (s *Store) State() *StoreState {
	st := s.CaptureState(nil)
	for i, rec := range st.Records {
		st.Records[i] = rec.Clone()
	}
	return st
}

// CaptureState is the snapshot writer's view of the store. Under the commit
// lock it invokes capture (the WAL manager records the last appended log
// sequence there: the mutation hook runs under the same lock, so no mutation
// can slip between that sequence and the captured contents) and collects the
// current version of every record — pointers, not copies: stored records are
// immutable, so the writer can encode them after the lock is released while
// mutations replace them in the store. The returned state is therefore
// read-only and must never reach RestoreState, which takes ownership of the
// records it is given; use State for that.
func (s *Store) CaptureState(capture func()) *StoreState {
	s.lockCommit()
	defer s.unlockCommit()
	defer func() { s.metrics.capture.Observe(time.Since(s.commitLockedAt)) }()
	if capture != nil {
		capture()
	}
	st := &StoreState{
		NextID:  QueryID(s.nextID.Load()),
		Records: make([]*QueryRecord, 0, s.Count()),
	}
	s.Snapshot().scanAll(func(rec *QueryRecord) bool {
		st.Records = append(st.Records, rec)
		return true
	})
	return st
}

// RestoreState replaces the store's entire contents with the snapshot: it
// swaps in an empty record table, rebuilds every inverted index through the
// same insert path used by live operations and replay, then runs every bus
// subscriber's Rebuild hook over the restored records: a snapshot
// load has no per-record mutation stream to fan out, and the WAL slot is not
// invoked. It takes ownership of st and its records: recovery hands over a
// freshly decoded state, and cloning ~100k records a second time would double
// restart cost.
func (s *Store) RestoreState(st *StoreState) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.restoreStateLocked(st)
	for i := range s.subs {
		s.subs[i].runRebuild()
	}
}

func (s *Store) restoreStateLocked(st *StoreState) {
	s.records.Store(new([]*leaf))
	s.count.Store(0)
	s.nextID.Store(0)
	s.index.mu.Lock()
	s.index.reset()
	s.index.mu.Unlock()
	for _, rec := range st.Records {
		s.insert(rec)
	}
	if int64(st.NextID) > s.nextID.Load() {
		s.nextID.Store(int64(st.NextID))
	}
}

// ---------------------------------------------------------------------------
// Snapshot payloads
// ---------------------------------------------------------------------------
//
// A snapshot is a stream of payloads (the WAL package frames them): one
// header, then record chunks until the header's record count is reached,
// then edge chunks until its edge count is reached, then its checkpoint
// sections, each in one or more parts.
//
//	header:      0x01 0x40 | NextID varint | records uvarint | edges uvarint |
//	             checkpoints uvarint
//	record chunk: 0x01 0x41 | count uint32 LE | count x (uvarint length | record body)
//	edge chunk:   0x01 0x42 | count uint32 LE | count x edge
//	checkpoint:   0x01 0x43 | name string | version uvarint | parts left uvarint |
//	              data (the rest); a section is one or more such payloads, the
//	              last with parts left = 0
//
// Edge chunks held the store's copy of the session edges, and checkpoint
// sections the serialized state of derived-state subscribers, both of which
// older builds wrote. This build writes an edge count and a section count of
// 0; an older snapshot's edge chunks are checked and dropped (SkipEdgeChunk),
// and its sections are checked part by part (DecodeCheckpointPart) and
// skipped: every subscriber rebuilds from the records.
//
// Every record body carries its own string table (see codec.go), so a chunk
// is only a container: records decode one by one, each into its own block.

// SnapshotHeader opens a snapshot stream and says how much follows it. Edges
// and Checkpoints are 0 in every snapshot this build writes.
type SnapshotHeader struct {
	NextID      QueryID
	Records     int
	Edges       int
	Checkpoints int
}

// chunkHeaderBytes is a chunk's format byte, kind byte and uint32 count.
const chunkHeaderBytes = 6

// AppendSnapshotHeader appends the header payload.
func AppendSnapshotHeader(dst []byte, h SnapshotHeader) []byte {
	dst = append(dst, PayloadFormat, kindSnapshotHeader)
	dst = binary.AppendVarint(dst, int64(h.NextID))
	dst = binary.AppendUvarint(dst, uint64(h.Records))
	dst = binary.AppendUvarint(dst, uint64(h.Edges))
	return binary.AppendUvarint(dst, uint64(h.Checkpoints))
}

// DecodeSnapshotHeader parses a header payload. A JSON-era snapshot's first
// payload fails with ErrPreBinaryPayload, and a high-water mark outside
// [0, MaxQueryID] fails too.
func DecodeSnapshotHeader(p []byte) (SnapshotHeader, error) {
	if err := expectKind(p, kindSnapshotHeader); err != nil {
		return SnapshotHeader{}, fmt.Errorf("storage: snapshot header: %w", err)
	}
	r := wire.NewReader(p[2:])
	count := func() int {
		v := r.Uvarint()
		if v > math.MaxInt32 {
			r.Fail(fmt.Errorf("count %d out of range", v))
		}
		return int(v)
	}
	h := SnapshotHeader{NextID: QueryID(r.Varint()), Records: count(), Edges: count(), Checkpoints: count()}
	if err := r.Finish(); err != nil {
		return SnapshotHeader{}, fmt.Errorf("storage: snapshot header: %w", err)
	}
	if h.NextID < 0 || h.NextID > MaxQueryID {
		return SnapshotHeader{}, fmt.Errorf("storage: snapshot header: high-water mark %d is outside [0, %d]", h.NextID, MaxQueryID)
	}
	return h, nil
}

func expectKind(p []byte, want byte) error {
	kind, err := checkFormat(p)
	if err != nil {
		return err
	}
	if kind != want {
		return fmt.Errorf("payload kind %#x, want %#x", kind, want)
	}
	return nil
}

func beginChunk(dst []byte, kind byte) []byte {
	return append(dst, PayloadFormat, kind, 0, 0, 0, 0)
}

// AppendRecordChunk appends one record-chunk payload to dst holding a prefix
// of recs: records are added until the payload reaches limit bytes, and at
// least one always is. It returns the payload and how many records it took.
func (e *Encoder) AppendRecordChunk(dst []byte, recs []*QueryRecord, limit int) ([]byte, int) {
	start := len(dst)
	dst = beginChunk(dst, kindRecordChunk)
	n := 0
	for n < len(recs) && (n == 0 || len(dst)-start < limit) {
		e.resetTable()
		e.record = e.recordBody(e.record[:0], recs[n])
		dst = binary.AppendUvarint(dst, uint64(len(e.record)))
		dst = append(dst, e.record...)
		n++
	}
	binary.LittleEndian.PutUint32(dst[start+2:], uint32(n))
	return dst, n
}

// ChunkCount reports what a chunk payload holds without decoding it: whether
// it is a record chunk (else an edge chunk) and its element count.
func ChunkCount(p []byte) (records bool, n int, err error) {
	kind, err := checkFormat(p)
	if err != nil {
		return false, 0, fmt.Errorf("storage: snapshot chunk: %w", err)
	}
	if kind != kindRecordChunk && kind != kindEdgeChunk {
		return false, 0, fmt.Errorf("storage: snapshot chunk: payload kind %#x is not a chunk", kind)
	}
	if len(p) < chunkHeaderBytes {
		return false, 0, fmt.Errorf("storage: snapshot chunk: %w", wire.ErrTruncated)
	}
	count := binary.LittleEndian.Uint32(p[2:])
	if uint64(count) > uint64(len(p)) {
		return false, 0, fmt.Errorf("storage: snapshot chunk: count %d exceeds its %d bytes", count, len(p))
	}
	return kind == kindRecordChunk, int(count), nil
}

// DecodeRecordChunk decodes a record chunk, appending its records to into.
// A record whose ID is outside [1, MaxQueryID] fails the chunk. The records
// share no memory with p. On error into is returned unchanged.
func DecodeRecordChunk(p []byte, into []*QueryRecord) ([]*QueryRecord, error) {
	records, n, err := ChunkCount(p)
	if err != nil {
		return into, err
	}
	if !records {
		return into, errors.New("storage: snapshot chunk: edge chunk where a record chunk was expected")
	}
	out := into
	rest := p[chunkHeaderBytes:]
	for i := 0; i < n; i++ {
		size, w := binary.Uvarint(rest)
		if w <= 0 || size > uint64(len(rest)-w) {
			return into, fmt.Errorf("storage: snapshot chunk: record %d of %d: %w", i, n, wire.ErrTruncated)
		}
		d := decoder{r: wire.NewReader(rest[w : w+int(size)])}
		rec := d.record()
		if err := d.r.Finish(); err != nil {
			return into, fmt.Errorf("storage: snapshot chunk: record %d of %d: %w", i, n, err)
		}
		if !validID(rec.ID) {
			return into, fmt.Errorf("storage: snapshot chunk: record %d of %d: query ID %d is outside [1, %d]", i, n, rec.ID, MaxQueryID)
		}
		out = append(out, rec)
		rest = rest[w+int(size):]
	}
	if len(rest) != 0 {
		return into, fmt.Errorf("storage: snapshot chunk: %d trailing bytes", len(rest))
	}
	return out, nil
}

// SkipEdgeChunk checks an older snapshot's edge chunk — every edge well
// formed, nothing after the last — and drops its edges.
func SkipEdgeChunk(p []byte) error {
	records, n, err := ChunkCount(p)
	if err != nil {
		return err
	}
	if records {
		return errors.New("storage: snapshot chunk: record chunk where an edge chunk was expected")
	}
	r := wire.NewReader(p[chunkHeaderBytes:])
	for i := 0; i < n; i++ {
		skipEdge(&r)
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("storage: snapshot edge chunk: %w", err)
	}
	return nil
}

// CheckpointPart is the header of one frame's worth of an older snapshot's
// checkpoint section: the subscriber it belonged to, its format version and
// how many more parts of the section follow (0 on the last, or only, part).
// The section's data, the rest of the payload, is never read.
type CheckpointPart struct {
	Name    string
	Version int
	Left    int
}

// DecodeCheckpointPart parses the header of one part of an older snapshot's
// checkpoint section.
func DecodeCheckpointPart(p []byte) (CheckpointPart, error) {
	if err := expectKind(p, kindCheckpoint); err != nil {
		return CheckpointPart{}, fmt.Errorf("storage: checkpoint section: %w", err)
	}
	rest := p[2:]
	nameLen, w := binary.Uvarint(rest)
	if w <= 0 || nameLen > uint64(len(rest)-w) {
		return CheckpointPart{}, fmt.Errorf("storage: checkpoint section: bad name length")
	}
	name := string(rest[w : w+int(nameLen)])
	rest = rest[w+int(nameLen):]
	version, w := binary.Uvarint(rest)
	if w <= 0 || version > math.MaxInt32 {
		return CheckpointPart{}, fmt.Errorf("storage: checkpoint section %q: bad version", name)
	}
	rest = rest[w:]
	more, w := binary.Uvarint(rest)
	if w <= 0 || more > math.MaxInt32 {
		return CheckpointPart{}, fmt.Errorf("storage: checkpoint section %q: bad part count", name)
	}
	return CheckpointPart{Name: name, Version: int(version), Left: int(more)}, nil
}
