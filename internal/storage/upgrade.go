package storage

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

// What older builds wrote and this build no longer does. A data directory
// that holds any of it is upgraded once, when internal/wal opens it: the
// upgrade replays the directory through the readers in this file, writes one
// snapshot in this build's format and removes the older files. Nothing else
// reaches these readers; every other reader refuses an older payload with
// ErrOlderFormat (internal/wal/FORMAT.md, "Upgraded at open").

const (
	// Op codes only older builds logged: a mining pass's session assignments
	// and edges, a maintenance pass's quality scores, and a record's new
	// output sample.
	codeAssignSession = 5
	codeAddEdge       = 6
	codeSetSample     = 11
	codeSetQuality    = 12

	// Snapshot payload kinds only older builds wrote, 0x40 to 0x44: a header
	// with edge and section counts, record chunks whose records carry their
	// shapes, session edge chunks (0x42), checkpoint section parts (0x43),
	// and a header without the sample counter.
	kindParentSnapshotHeader = 0x40
	kindRecordChunk          = 0x41
	kindShapeSnapshotHeader  = 0x44

	// Mutation fields only older builds wrote: a record body with its
	// shape's fields and its own interleaved, a session ID, a session edge, a
	// set-sample's sample and a quality score.
	hasRecord      = 1 << 1
	hasSessionID   = 1 << 4
	hasSessionEdge = 1 << 5
	hasSample      = 1 << 9
	hasScore       = 1 << 10
	olderFields    = hasRecord | hasSessionID | hasSessionEdge | hasSample | hasScore
)

// olderKind reports whether a payload kind is one only older builds wrote.
func olderKind(kind byte) bool {
	return kind == codeAssignSession || kind == codeAddEdge || kind == codeSetSample || kind == codeSetQuality ||
		kind >= kindParentSnapshotHeader && kind <= kindShapeSnapshotHeader
}

// olderMutation reads what only an older build wrote into a mutation body:
// the op code, the older fields set and a set-sample's sample are kept, the
// session and quality fields read, checked and dropped.
type olderMutation struct {
	code   byte
	fields uint64
	sample *OutputSample
}

// read reads the fields of bits, which decodeMutation calls at their places
// in the body. With no bits it reads nothing, on a nil receiver too.
func (o *olderMutation) read(d *decoder, m *Mutation, bits uint64) {
	if bits&hasRecord != 0 {
		if m.Record != nil {
			d.r.Fail(errors.New("two records"))
			return
		}
		m.Record = d.parentRecord()
	}
	if bits&hasSessionID != 0 {
		d.r.Varint()
	}
	if bits&hasSessionEdge != 0 { // from, to, type, diff
		d.r.Varint()
		d.r.Varint()
		d.r.Int()
		d.r.Take(d.r.Uvarint())
	}
	if bits&hasSample != 0 {
		o.sample = d.sample()
	}
	if bits&hasScore != 0 {
		d.r.Uint64()
	}
}

// ApplyPayload replays one log payload, whatever build wrote it, and reports
// whether an older build did. A payload this build writes is applied as
// Apply applies it. An older build's session assignment, session edge and
// quality score change nothing. Its set-sample puts the record again with
// the sample it carries: the record moves to the live sample with equal
// values, or that sample enters under the next number, and its old sample is
// released. Recovery at open (internal/wal) is the only caller, and upgrades
// a directory any payload of which an older build wrote; nothing else may
// apply to the store at the same time.
func (s *Store) ApplyPayload(p []byte) (older bool, err error) {
	var o olderMutation
	m, err := decodeMutation(p, &o)
	if err != nil {
		return false, err
	}
	switch o.code {
	case codeAssignSession, codeAddEdge, codeSetQuality:
		return true, nil
	case codeSetSample:
		rec, ok := s.loadRecord(m.ID)
		if !ok {
			return true, fmt.Errorf("%w: %d", ErrNotFound, m.ID)
		}
		next := rec.shallowCopy()
		next.Sample = o.sample
		if err := admitRecord(next); err != nil {
			return true, err
		}
		m = &Mutation{Op: OpPut, Record: next}
	}
	return o.code == codeSetSample || o.fields != 0, s.Apply(m)
}

// parentRecord reads a record body as builds before shape numbers wrote it:
// shape and instance fields interleaved, with a session slot and a quality
// slot this build drops. The shape has no number.
func (d *decoder) parentRecord() *QueryRecord {
	rec := &QueryRecord{QueryShape: &QueryShape{}, ID: QueryID(d.r.Varint())}
	d.shapeHead(rec.QueryShape)
	d.instanceHead(rec)
	d.shapeFeatures(rec.QueryShape)
	d.instanceRuns(rec)
	d.r.Varint() // the session slot
	d.instanceFlags(rec)
	d.r.Uint64() // the quality slot
	return rec
}

// DecodeOlderSnapshotHeader parses the header of a snapshot an older build
// wrote, with the checks DecodeSnapshotHeader makes. parent is set for one
// whose record chunks carry their records' shapes: it has no shapes of its
// own, and its session edge chunks and checkpoint sections follow its
// records. Otherwise it is the header before sample numbers, whose chunks
// are this build's and whose samples have no numbers.
func DecodeOlderSnapshotHeader(p []byte) (h SnapshotHeader, parent bool, err error) {
	kind, err := checkFormat(p, true)
	if err == nil && kind != kindParentSnapshotHeader && kind != kindShapeSnapshotHeader {
		err = fmt.Errorf("payload kind %#x is not an older snapshot header", kind)
	}
	if err != nil {
		return h, false, fmt.Errorf("storage: snapshot header: %w", err)
	}
	r := wire.NewReader(p[2:])
	h.NextID, h.Records = QueryID(r.Varint()), headerCount(&r)
	if parent = kind == kindParentSnapshotHeader; parent {
		headerCount(&r) // the session edges
		headerCount(&r) // the checkpoint sections
	} else {
		h.Shapes, h.NextShape = headerCount(&r), r.Uvarint()
	}
	return h, parent, h.check(&r)
}

// ChunkParentRecords is the kind of an older build's record chunk, whose
// records carry their shapes.
const ChunkParentRecords = ChunkRecords + 1

// OlderChunkCount is ChunkCount for a snapshot an older build wrote.
func OlderChunkCount(p []byte) (ChunkKind, int, error) { return chunkCount(p, true) }

// DecodeOlderRecordChunk decodes a record chunk as builds before shape
// numbers wrote it, each record carrying its shape, into st.Records, with the
// checks DecodeRecordChunk makes. The shapes have no numbers: a restore
// numbers them in ID order.
func DecodeOlderRecordChunk(p []byte, st *StoreState) error {
	return decodeRecords(p, st, ChunkParentRecords, func(d *decoder) (*QueryRecord, error) {
		return d.parentRecord(), nil
	})
}
