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
// order, the ID counter, the live shapes in ascending number with the shape
// counter, and the sample counter. It is what the WAL subsystem streams out as
// a snapshot and what recovery stages before replaying the log tail; the
// inverted indexes are derived state and are rebuilt on restore.
type StoreState struct {
	NextID  QueryID        `json:"nextId"`
	Records []*QueryRecord `json:"records"`
	// Shapes are the shapes the records point at, in ascending number, and
	// NextShape the number the next new shape takes. A state the upgrade
	// read from an older build's snapshot may have neither: its records
	// carry shapes of their own, and a restore numbers them in record order.
	Shapes    []*QueryShape `json:"-"`
	NextShape uint64        `json:"-"`
	// NextSample is the number the next new sample takes. The samples are
	// the records': records of one sample share it, and it carries its
	// number, unless no store numbered it (as in a state the upgrade read
	// from an older build's snapshot): a restore numbers those in record
	// order.
	NextSample uint64 `json:"-"`

	// samples holds, by number, the samples the record chunks decoded so
	// far defined: what a later record's reference resolves against.
	samples map[uint64]*OutputSample
}

// CaptureState is the snapshot writer's view of the store. Under the commit
// lock it invokes capture (the WAL manager records the last appended log
// sequence there: the log slot appends under the same lock, so no mutation
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
		NextID:     QueryID(s.nextID.Load()),
		Records:    make([]*QueryRecord, 0, s.Count()),
		Shapes:     make([]*QueryShape, 0, len(s.index.shapes.byNum)),
		NextShape:  s.index.shapes.nextSeq,
		NextSample: s.index.samples.nextSeq,
	}
	s.Snapshot().scanAll(func(rec *QueryRecord) bool {
		st.Records = append(st.Records, rec)
		return true
	})
	for _, sh := range s.index.shapes.byNum {
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
// path used by live operations and replay (which enters each numbered sample
// under its number), sets the shape and sample counters, then runs
// every bus subscriber's Rebuild hook over the restored records: a snapshot
// load has no per-record mutation stream to fan out, and the log slot is not
// invoked. Records of a state without shapes (one the upgrade read from an
// older build's snapshot) number their shapes in the order the state holds
// them. It takes ownership of st, its records
// and its shapes: recovery hands over a freshly decoded state, and cloning
// ~100k records a second time would double restart cost. A state check
// refuses is refused with an error and the store is left as it was. A store
// whose mutations a log records must be restored only from that log's
// snapshots: a state without shape numbers renumbers the shapes, and the
// frames logged after would name numbers the log never defined.
func (s *Store) RestoreState(st *StoreState) error {
	if err := st.check(); err != nil {
		return err
	}
	for _, sh := range st.Shapes {
		sh.prepare()
	}
	st.samples = nil // the reader's; the records hold the samples
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.restoreStateLocked(st)
	for i := range s.subs {
		s.subs[i].runRebuild()
	}
	return nil
}

// check refuses a state the store cannot take on: a missing record or shape,
// or a shape held by a store (a captured state). The number rules are the
// snapshot reader's to enforce: a state it decoded always passes, and a
// state built in memory whose numbers do not fit together is numbered anew
// where they clash, as live puts are.
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
	}
	return nil
}

// sampleCap bounds how many samples st's records hold, to size the maps that
// take them.
func (st *StoreState) sampleCap() int {
	return min(len(st.Records), int(min(st.NextSample, math.MaxInt32)))
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
	s.index.samples.reset(st.sampleCap())
	for _, sh := range st.Shapes {
		s.index.shapes.enter(sh, sh.seq)
		s.index.postShapeLocked(sh)
	}
	s.index.mu.Unlock()
	for _, rec := range st.Records {
		s.insert(rec)
	}
	s.index.mu.Lock()
	s.index.shapes.nextSeq = max(s.index.shapes.nextSeq, st.NextShape)
	s.index.samples.nextSeq = max(s.index.samples.nextSeq, st.NextSample)
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
// shape's number and its own fields. A record's sample is defined inline,
// under its number, at the sample's first record in ID order, and named by
// number at every later one. The payloads of older builds' snapshots are
// read by upgrade.go alone.
//
// Every element of a chunk carries its own string table (see codec.go), so a
// chunk is only a container: elements decode one by one.

// Payload kinds of this build's snapshots.
const (
	kindShapeChunk        = 0x45
	kindShapedRecordChunk = 0x46
	kindSnapshotHeader    = 0x47
)

// SnapshotHeader opens a snapshot stream and says how much follows it:
// Shapes shapes, numbered below the shape counter NextShape, then Records
// records, whose samples are numbered below the sample counter NextSample.
type SnapshotHeader struct {
	NextID     QueryID
	Records    int
	Shapes     int
	NextShape  uint64
	NextSample uint64
}

// ChunkKind says what a snapshot chunk holds.
type ChunkKind int

// Chunk kinds: shapes and records.
const (
	ChunkShapes ChunkKind = iota + 1
	ChunkRecords
)

var chunkKinds = map[byte]ChunkKind{kindShapeChunk: ChunkShapes, kindShapedRecordChunk: ChunkRecords, kindRecordChunk: ChunkParentRecords}

// chunkHeaderBytes is a chunk's format byte, kind byte and uint32 count.
const chunkHeaderBytes = 6

// AppendSnapshotHeader appends the header of a snapshot of st, and starts the
// snapshot: the record chunks the encoder appends next define each sample at
// its first record.
func (e *Encoder) AppendSnapshotHeader(dst []byte, st *StoreState) []byte {
	e.defined = make(map[uint64]uint64, st.sampleCap()/64+1)
	dst = append(dst, PayloadFormat, kindSnapshotHeader)
	dst = binary.AppendVarint(dst, int64(st.NextID))
	dst = binary.AppendUvarint(dst, uint64(len(st.Records)))
	dst = binary.AppendUvarint(dst, uint64(len(st.Shapes)))
	dst = binary.AppendUvarint(dst, st.NextShape)
	return binary.AppendUvarint(dst, st.NextSample)
}

// DecodeSnapshotHeader parses a header payload. A JSON-era snapshot's first
// payload fails with ErrPreBinaryPayload and an older build's header with
// ErrOlderFormat; a high-water mark outside [0, MaxQueryID] fails too, as
// does a shape counter that could not number the shapes announced.
func DecodeSnapshotHeader(p []byte) (SnapshotHeader, error) {
	kind, err := checkFormat(p, false)
	if err == nil && kind != kindSnapshotHeader {
		err = fmt.Errorf("payload kind %#x is not a snapshot header", kind)
	}
	if err != nil {
		return SnapshotHeader{}, fmt.Errorf("storage: snapshot header: %w", err)
	}
	r := wire.NewReader(p[2:])
	h := SnapshotHeader{NextID: QueryID(r.Varint()), Records: headerCount(&r), Shapes: headerCount(&r)}
	h.NextShape, h.NextSample = r.Uvarint(), r.Uvarint()
	return h, h.check(&r)
}

// headerCount reads one of a header's counts.
func headerCount(r *wire.Reader) int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.Fail(fmt.Errorf("count %d out of range", v))
	}
	return int(v)
}

// check ends the reading of a header's payload r and checks what it read.
func (h SnapshotHeader) check(r *wire.Reader) error {
	if err := r.Finish(); err != nil {
		return fmt.Errorf("storage: snapshot header: %w", err)
	}
	if h.NextID < 0 || h.NextID > MaxQueryID {
		return fmt.Errorf("storage: snapshot header: high-water mark %d is outside [0, %d]", h.NextID, MaxQueryID)
	}
	if h.NextShape > maxNumber || h.Shapes > 0 && uint64(h.Shapes) >= h.NextShape {
		return fmt.Errorf("storage: snapshot header: shape counter %d cannot number %d shapes", h.NextShape, h.Shapes)
	}
	if h.NextSample > maxNumber {
		return fmt.Errorf("storage: snapshot header: sample counter %d out of range", h.NextSample)
	}
	return nil
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
// recs, each its shape's number and its instance body; see appendChunk. A
// numbered sample is defined inline at its first record since the snapshot
// started and named by number at every later one.
func (e *Encoder) AppendRecordChunk(dst []byte, recs []*QueryRecord, limit int) ([]byte, int) {
	return appendChunk(e, dst, kindShapedRecordChunk, recs, limit, func(dst []byte, rec *QueryRecord) []byte {
		var tag uint64
		if sm := rec.Sample; sm != nil {
			word, bit := sm.seq/64, uint64(1)<<(sm.seq%64)
			seen := e.defined[word]&bit != 0
			if tag = sampleTag(sm, seen); !seen && sm.seq != 0 {
				if e.defined == nil {
					e.defined = make(map[uint64]uint64)
				}
				e.defined[word] |= bit
			}
		}
		return e.instanceBody(binary.AppendUvarint(dst, rec.seq), rec, tag)
	})
}

// ChunkCount reports what a chunk payload holds without decoding it: its
// kind and its element count. An older build's chunk fails with
// ErrOlderFormat.
func ChunkCount(p []byte) (ChunkKind, int, error) { return chunkCount(p, false) }

// chunkCount is ChunkCount, of an older build's record chunk too when older
// is set.
func chunkCount(p []byte, older bool) (ChunkKind, int, error) {
	kind, err := checkFormat(p, older)
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
// element's last byte. An older build's chunk is read only where one is
// wanted.
func eachElement(p []byte, want ChunkKind, fn func(i int, d *decoder) error) error {
	kind, n, err := chunkCount(p, want == ChunkParentRecords)
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
		sh := &QueryShape{numbered: numbered{seq: num}}
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

// DecodeRecordChunk decodes a record chunk into st.Records, each record
// referring to one of st's shapes by number. A reference to a shape st does
// not hold fails the chunk, naming the number, as does a record whose ID is
// outside [1, MaxQueryID]. So does a sample reference to a number no earlier
// record defined, and a sample definition whose number one already has or
// that is not below st.NextSample. An older build's record chunk fails with
// ErrOlderFormat. The records share no memory with p. On error st is left
// unchanged.
func DecodeRecordChunk(p []byte, st *StoreState) error {
	return decodeRecords(p, st, ChunkRecords, func(d *decoder) (*QueryRecord, error) {
		num := d.shapeNumber()
		if d.r.Err() != nil {
			return nil, nil
		}
		i, ok := st.shapeIndex(num)
		if !ok {
			return nil, fmt.Errorf("%w: a record refers to shape %d, which the snapshot does not hold", ErrUnknownShape, num)
		}
		rec := &QueryRecord{QueryShape: st.Shapes[i]}
		d.instance(rec)
		return rec, nil
	})
}

// decodeRecords decodes a record chunk of the given kind into st.Records,
// each record read by record (nil when the reader failed), with the checks
// DecodeRecordChunk makes of every record.
func decodeRecords(p []byte, st *StoreState, kind ChunkKind, record func(d *decoder) (*QueryRecord, error)) error {
	if st.samples == nil {
		// A header can claim any counter; let a false one cost nothing.
		st.samples = make(map[uint64]*OutputSample, min(st.NextSample, 1<<16))
	}
	var defined []uint64 // by this chunk, dropped again if it fails
	out := st.Records
	err := eachElement(p, kind, func(_ int, d *decoder) error {
		rec, err := record(d)
		if err != nil || rec == nil || d.r.Err() != nil {
			return err
		}
		if !validID(rec.ID) {
			return fmt.Errorf("query ID %d is outside [1, %d]", rec.ID, MaxQueryID)
		}
		if num := d.sampleRef; num != 0 {
			if rec.Sample = st.samples[num]; rec.Sample == nil {
				return fmt.Errorf("%w: query %d refers to sample %d, which no record before it defines", ErrUnknownSample, rec.ID, num)
			}
		} else if sm := rec.Sample; sm != nil && sm.seq != 0 {
			if sm.seq >= st.NextSample || st.samples[sm.seq] != nil {
				return fmt.Errorf("%w: query %d defines sample %d, defined before or not below the counter %d", ErrUnknownSample, rec.ID, sm.seq, st.NextSample)
			}
			st.samples[sm.seq] = sm
			defined = append(defined, sm.seq)
		}
		out = append(out, rec)
		return nil
	})
	if err != nil {
		for _, num := range defined {
			delete(st.samples, num)
		}
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
