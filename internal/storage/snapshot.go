package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/wire"
)

// StoreState is the full serialisable state of a Store: every record in ID
// order, the ID counter, and the live shapes in ascending number with the
// shape counter. It is what the WAL subsystem streams out as a snapshot and
// what recovery stages before replaying the log tail; the inverted indexes
// are derived state and are rebuilt on restore.
type StoreState struct {
	NextID  QueryID        `json:"nextId"`
	Records []*QueryRecord `json:"records"`
	// Shapes are the shapes the records point at, in ascending number, and
	// NextShape the number the next new shape takes. A state read from an
	// older build's snapshot has neither: its records carry shapes of their
	// own, and a restore numbers them in ID order.
	Shapes    []*QueryShape `json:"-"`
	NextShape uint64        `json:"-"`
}

// CaptureState is the snapshot writer's view of the store. Under the commit
// lock it invokes capture (the WAL manager records the last appended log
// sequence there: the mutation hook runs under the same lock, so no mutation
// can slip between that sequence and the captured contents) and collects the
// current version of every record and every live shape — pointers, not
// copies: stored records and shapes are immutable, so the writer can encode
// them after the lock is released while mutations replace them in the store.
// The returned state is therefore read-only and must never reach
// RestoreState, which takes ownership of the records and shapes it is given.
func (s *Store) CaptureState(capture func()) *StoreState {
	s.lockCommit()
	if capture != nil {
		capture()
	}
	st := &StoreState{
		NextID:    QueryID(s.nextID.Load()),
		Records:   make([]*QueryRecord, 0, s.Count()),
		Shapes:    make([]*QueryShape, 0, len(s.index.byNum)),
		NextShape: s.index.nextSeq,
	}
	s.Snapshot().scanAll(func(rec *QueryRecord) bool {
		st.Records = append(st.Records, rec)
		return true
	})
	for _, sh := range s.index.byNum {
		st.Shapes = append(st.Shapes, sh)
	}
	s.metrics.capture.Observe(time.Since(s.commitLockedAt))
	s.unlockCommit()
	slices.SortFunc(st.Shapes, func(a, b *QueryShape) int { return cmp.Compare(a.seq, b.seq) })
	return st
}

// RestoreState replaces the store's entire contents with the snapshot: it
// swaps in an empty record table, enters the snapshot's shapes under their
// numbers in ascending order, inserts every record through the same insert
// path used by live operations and replay, sets the shape counter, then runs
// every bus subscriber's Rebuild hook over the restored records: a snapshot
// load has no per-record mutation stream to fan out, and the WAL slot is not
// invoked. Records of a state without shapes (an older build's snapshot)
// number their shapes in ID order. It takes ownership of st, its records
// and its shapes: recovery hands over a freshly decoded state, and cloning
// ~100k records a second time would double restart cost. A state whose
// shapes and records do not fit together (see check) is refused with an
// error and the store is left as it was. A store whose mutations a log
// records must be restored only from that log's snapshots: a state without
// shape numbers renumbers the shapes, and the frames logged after would name
// numbers the log never defined.
func (s *Store) RestoreState(st *StoreState) error {
	if err := st.check(); err != nil {
		return err
	}
	for _, sh := range st.Shapes {
		sh.prepare()
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.restoreStateLocked(st)
	for i := range s.subs {
		s.subs[i].runRebuild()
	}
	return nil
}

// check refuses a state the store cannot take on: a shape that is missing
// or held by a store (a captured state), and a record whose numbered shape
// is not one of the state's shapes, which must ascend. The snapshot reader
// enforces the format's rules, so a state it decoded always passes.
func (st *StoreState) check() error {
	for _, sh := range st.Shapes {
		if sh == nil || sh.interned {
			return errors.New("storage: restore: a shape that is missing or held by a store")
		}
	}
	for _, rec := range st.Records {
		if rec == nil || rec.QueryShape == nil {
			return errors.New("storage: restore: a record without a shape")
		}
		if rec.interned || rec.seq == 0 {
			continue
		}
		if i, ok := st.shapeIndex(rec.seq); !ok || st.Shapes[i] != rec.QueryShape {
			return fmt.Errorf("%w: query %d refers to shape %d, which the snapshot does not hold", ErrUnknownShape, rec.ID, rec.seq)
		}
	}
	return nil
}

// shapeIndex finds the shape numbered num among st's ascending shapes.
func (st *StoreState) shapeIndex(num uint64) (int, bool) {
	return slices.BinarySearchFunc(st.Shapes, num, func(sh *QueryShape, n uint64) int { return cmp.Compare(sh.seq, n) })
}

func (s *Store) restoreStateLocked(st *StoreState) {
	s.records.Store(new([]*leaf))
	s.count.Store(0)
	s.nextID.Store(0)
	s.index.mu.Lock()
	s.index.reset()
	for _, sh := range st.Shapes {
		s.index.enterLocked(sh, sh.seq)
	}
	s.index.mu.Unlock()
	if len(st.Shapes) == 0 {
		// The records number their own shapes as they go in: in ID order,
		// whatever order an older build wrote them in.
		slices.SortStableFunc(st.Records, func(a, b *QueryRecord) int { return cmp.Compare(a.ID, b.ID) })
	}
	for _, rec := range st.Records {
		s.insert(rec)
	}
	s.index.mu.Lock()
	s.index.nextSeq = max(s.index.nextSeq, st.NextShape)
	s.index.mu.Unlock()
	if int64(st.NextID) > s.nextID.Load() {
		s.nextID.Store(int64(st.NextID))
	}
}

// ---------------------------------------------------------------------------
// Snapshot payloads
// ---------------------------------------------------------------------------
//
// A snapshot is a stream of payloads (the WAL package frames them; the layout
// is specified in internal/wal/FORMAT.md): one header, then shape chunks until
// the header's shape count is reached, then record chunks until its record
// count is reached. A shape chunk holds shapes with their numbers, in
// ascending number; a record chunk holds records, each written as its
// shape's number and its own fields.
//
// Older builds wrote another header (kindSnapshotHeader) and record chunks
// whose records carried their shapes inline (kindRecordChunk), then session
// edge chunks and the checkpoint sections of derived-state subscribers. Those
// are still read: the edge chunks are checked and dropped (SkipEdgeChunk), and
// the sections are checked part by part (DecodeCheckpointPart) and skipped:
// every subscriber rebuilds from the records.
//
// Every element of a chunk carries its own string table (see codec.go), so a
// chunk is only a container: elements decode one by one.

// Payload kinds of this build's snapshots.
const (
	kindShapeSnapshotHeader = 0x44
	kindShapeChunk          = 0x45
	kindShapedRecordChunk   = 0x46
)

// SnapshotHeader opens a snapshot stream and says how much follows it.
type SnapshotHeader struct {
	NextID  QueryID
	Records int
	// Numbered is set for a snapshot that writes its shapes before its
	// records, Shapes of them, with the shape counter NextShape.
	Numbered  bool
	Shapes    int
	NextShape uint64
	// Edges and Checkpoints are what an older build's snapshot announced
	// after its records: session edges and checkpoint sections, read and
	// skipped. They are 0 in a Numbered snapshot.
	Edges       int
	Checkpoints int
}

// ChunkKind says what a snapshot chunk holds.
type ChunkKind int

// Chunk kinds: this build writes shape and record chunks; an older build's
// snapshot holds record chunks with the shapes inline, and edge chunks.
const (
	ChunkShapes ChunkKind = iota + 1
	ChunkRecords
	ChunkParentRecords
	ChunkEdges
)

var chunkKinds = map[byte]ChunkKind{
	kindShapeChunk: ChunkShapes, kindShapedRecordChunk: ChunkRecords,
	kindRecordChunk: ChunkParentRecords, kindEdgeChunk: ChunkEdges,
}

// chunkHeaderBytes is a chunk's format byte, kind byte and uint32 count.
const chunkHeaderBytes = 6

// AppendSnapshotHeader appends the header of a snapshot of st.
func AppendSnapshotHeader(dst []byte, st *StoreState) []byte {
	dst = append(dst, PayloadFormat, kindShapeSnapshotHeader)
	dst = binary.AppendVarint(dst, int64(st.NextID))
	dst = binary.AppendUvarint(dst, uint64(len(st.Records)))
	dst = binary.AppendUvarint(dst, uint64(len(st.Shapes)))
	return binary.AppendUvarint(dst, st.NextShape)
}

// DecodeSnapshotHeader parses a header payload, this build's or an older
// one's. A JSON-era snapshot's first payload fails with ErrPreBinaryPayload,
// and a high-water mark outside [0, MaxQueryID] fails too, as does a shape
// counter that could not number the shapes announced.
func DecodeSnapshotHeader(p []byte) (SnapshotHeader, error) {
	kind, err := checkFormat(p)
	if err == nil && kind != kindSnapshotHeader && kind != kindShapeSnapshotHeader {
		err = fmt.Errorf("payload kind %#x is not a snapshot header", kind)
	}
	if err != nil {
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
	h := SnapshotHeader{NextID: QueryID(r.Varint()), Records: count()}
	if kind == kindShapeSnapshotHeader {
		h.Numbered, h.Shapes, h.NextShape = true, count(), r.Uvarint()
	} else {
		h.Edges, h.Checkpoints = count(), count()
	}
	if err := r.Finish(); err != nil {
		return SnapshotHeader{}, fmt.Errorf("storage: snapshot header: %w", err)
	}
	if h.NextID < 0 || h.NextID > MaxQueryID {
		return SnapshotHeader{}, fmt.Errorf("storage: snapshot header: high-water mark %d is outside [0, %d]", h.NextID, MaxQueryID)
	}
	if h.NextShape > maxShapeNumber || h.Shapes > 0 && uint64(h.Shapes) >= h.NextShape {
		return SnapshotHeader{}, fmt.Errorf("storage: snapshot header: shape counter %d cannot number %d shapes", h.NextShape, h.Shapes)
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

// appendChunk appends one chunk payload of the given kind holding a prefix
// of elems, each written by body into its own length-prefixed element with a
// string table of its own: elements are added until the payload reaches
// limit bytes, and at least one always is. It returns the payload and how
// many elements it took.
func appendChunk[E any](e *Encoder, dst []byte, kind byte, elems []E, limit int, body func([]byte, E) []byte) ([]byte, int) {
	start := len(dst)
	dst = append(dst, PayloadFormat, kind, 0, 0, 0, 0)
	n := 0
	for n < len(elems) && (n == 0 || len(dst)-start < limit) {
		e.resetTable()
		e.record = body(e.record[:0], elems[n])
		dst = binary.AppendUvarint(dst, uint64(len(e.record)))
		dst = append(dst, e.record...)
		n++
	}
	binary.LittleEndian.PutUint32(dst[start+2:], uint32(n))
	return dst, n
}

// AppendShapeChunk appends one shape-chunk payload holding a prefix of
// shapes, each its number and its shape body; see appendChunk.
func (e *Encoder) AppendShapeChunk(dst []byte, shapes []*QueryShape, limit int) ([]byte, int) {
	return appendChunk(e, dst, kindShapeChunk, shapes, limit, func(dst []byte, sh *QueryShape) []byte {
		return e.shapeBody(binary.AppendUvarint(dst, sh.seq), sh)
	})
}

// AppendRecordChunk appends one record-chunk payload holding a prefix of
// recs, each its shape's number and its instance body; see appendChunk.
func (e *Encoder) AppendRecordChunk(dst []byte, recs []*QueryRecord, limit int) ([]byte, int) {
	return appendChunk(e, dst, kindShapedRecordChunk, recs, limit, func(dst []byte, rec *QueryRecord) []byte {
		return e.instanceBody(binary.AppendUvarint(dst, rec.seq), rec)
	})
}

// ChunkCount reports what a chunk payload holds without decoding it: its
// kind and its element count.
func ChunkCount(p []byte) (ChunkKind, int, error) {
	kind, err := checkFormat(p)
	if err != nil {
		return 0, 0, fmt.Errorf("storage: snapshot chunk: %w", err)
	}
	ck, ok := chunkKinds[kind]
	if !ok {
		return 0, 0, fmt.Errorf("storage: snapshot chunk: payload kind %#x is not a chunk", kind)
	}
	if len(p) < chunkHeaderBytes {
		return 0, 0, fmt.Errorf("storage: snapshot chunk: %w", wire.ErrTruncated)
	}
	count := binary.LittleEndian.Uint32(p[2:])
	if uint64(count) > uint64(len(p)) {
		return 0, 0, fmt.Errorf("storage: snapshot chunk: count %d exceeds its %d bytes", count, len(p))
	}
	return ck, int(count), nil
}

// eachElement walks the length-prefixed elements of a chunk of the wanted
// kind, handing each to fn with a decoder over its bytes and an empty string
// table (one decoder serves the chunk); fn's decoder must end at the
// element's last byte.
func eachElement(p []byte, want ChunkKind, fn func(i int, d *decoder) error) error {
	kind, n, err := ChunkCount(p)
	if err != nil {
		return err
	}
	if kind != want {
		return fmt.Errorf("storage: snapshot chunk: chunk kind %d where %d was expected", kind, want)
	}
	rest := p[chunkHeaderBytes:]
	d := new(decoder)
	for i := 0; i < n; i++ {
		size, w := binary.Uvarint(rest)
		if w <= 0 || size > uint64(len(rest)-w) {
			return fmt.Errorf("storage: snapshot chunk: element %d of %d: %w", i, n, wire.ErrTruncated)
		}
		d.r, d.n = wire.NewReader(rest[w:w+int(size)]), 0
		err := fn(i, d)
		if err == nil {
			err = d.r.Finish()
		}
		if err != nil {
			return fmt.Errorf("storage: snapshot chunk: element %d of %d: %w", i, n, err)
		}
		rest = rest[w+int(size):]
	}
	if len(rest) != 0 {
		return fmt.Errorf("storage: snapshot chunk: %d trailing bytes", len(rest))
	}
	return nil
}

// DecodeShapeChunk decodes a shape chunk into st.Shapes. Numbers must go on
// ascending from the last shape st holds, and stay below st.NextShape. The
// shapes share no memory with p. On error st is left unchanged.
func DecodeShapeChunk(p []byte, st *StoreState) error {
	out := st.Shapes
	err := eachElement(p, ChunkShapes, func(_ int, d *decoder) error {
		num := d.shapeNumber()
		sh := &QueryShape{seq: num}
		d.shape(sh)
		if d.r.Err() != nil {
			return nil
		}
		if last := len(out) - 1; num == 0 || num >= st.NextShape || last >= 0 && num <= out[last].seq {
			return fmt.Errorf("shape %d is out of ascending order below the counter %d", num, st.NextShape)
		}
		out = append(out, sh)
		return nil
	})
	if err != nil {
		return err
	}
	st.Shapes = out
	return nil
}

// DecodeRecordChunk decodes a record chunk into st.Records: this build's,
// whose records refer to st's shapes by number, or an older build's, whose
// records carry their shapes. A reference to a shape st does not hold fails
// the chunk, naming the number, as does a record whose ID is outside
// [1, MaxQueryID]. The records share no memory with p. On error st is left
// unchanged.
func DecodeRecordChunk(p []byte, st *StoreState) error {
	kind, _, err := ChunkCount(p)
	if err != nil {
		return err
	}
	if kind != ChunkParentRecords {
		kind = ChunkRecords
	}
	out := st.Records
	err = eachElement(p, kind, func(_ int, d *decoder) error {
		var rec *QueryRecord
		if kind == ChunkParentRecords {
			rec = d.parentRecord()
		} else {
			num := d.shapeNumber()
			if d.r.Err() != nil {
				return nil
			}
			i, ok := st.shapeIndex(num)
			if !ok {
				return fmt.Errorf("%w: a record refers to shape %d, which the snapshot does not hold", ErrUnknownShape, num)
			}
			rec = &QueryRecord{QueryShape: st.Shapes[i]}
			d.instance(rec)
		}
		if d.r.Err() == nil && !validID(rec.ID) {
			return fmt.Errorf("query ID %d is outside [1, %d]", rec.ID, MaxQueryID)
		}
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return err
	}
	st.Records = out
	return nil
}

// CheckShapesUsed checks a decoded snapshot as a whole: each of its shapes
// is the shape of at least one of its records, as the writer's dictionary
// held only live shapes. The snapshot reader calls it after the last record
// chunk.
func (st *StoreState) CheckShapesUsed() error {
	used := make([]bool, len(st.Shapes))
	n := 0
	for _, rec := range st.Records {
		if i, ok := st.shapeIndex(rec.seq); ok && !used[i] {
			used[i] = true
			n++
		}
	}
	if n == len(used) {
		return nil
	}
	i := slices.Index(used, false)
	return fmt.Errorf("storage: snapshot: shape %d has no record", st.Shapes[i].seq)
}

// SkipEdgeChunk checks an older snapshot's edge chunk — every edge well
// formed, nothing after the last — and drops its edges.
func SkipEdgeChunk(p []byte) error {
	kind, n, err := ChunkCount(p)
	if err != nil {
		return err
	}
	if kind != ChunkEdges {
		return errors.New("storage: snapshot chunk: not an edge chunk")
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
