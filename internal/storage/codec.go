package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/sql"
	"repro/internal/wire"
)

// The binary record codec. One encoder and one decoder serve every place a
// QueryRecord or Mutation leaves memory: WAL frames, snapshot chunks and the
// replication stream (which ships those same frames). The byte layout of
// every payload — primitives, string tables, shape numbers, the mutation and
// record bodies — is specified in internal/wal/FORMAT.md; the comments here
// name the pieces. What only older builds wrote is read by upgrade.go alone.
//
// A record travels as two bodies: its shape (shapeBody: the text and what the
// text determines) and its own fields (instanceBody). A shape is written
// once, under its number (QueryShape.Number), by the put or replace-text
// that entered it into the store's dictionary, and by every snapshot that
// holds it; every other frame refers to it by number. The instance body's
// output sample follows the same rule (OutputSample.Number): written inline
// by the put that entered it and at its first record in a snapshot, by
// number everywhere else.

// PayloadFormat is the format version every payload starts with.
const PayloadFormat = 1

// ErrPreBinaryPayload reports a payload written by a build that stored JSON.
// There is no reader for it: the data directory has to be recreated (or the
// primary upgraded first, on a replication stream).
var ErrPreBinaryPayload = errors.New("JSON payload from a pre-binary build; this build reads payload format 1 only")

// ErrOlderFormat reports a payload only an older build wrote: an op, a field
// or a snapshot payload kind this build no longer writes. wal.Open upgrades a
// data directory that holds one, once; every other reader refuses it. A
// follower refuses a primary that still serves one: upgrade the primary
// first, then let followers bootstrap from it again.
var ErrOlderFormat = errors.New("payload in an older build's format: opening its data directory upgrades it (upgrade a primary before its followers)")

// maxInterned bounds the per-record string table. It fits the encoder's
// 256-slot hash table at half load and keeps every back-reference within two
// bytes.
const maxInterned = 127

// opByCode is the on-disk op code table: an op's code is its index, and a
// byte that is no op's code holds "". The codes are the format — never
// renumber one, nor reuse one only older builds wrote (upgrade.go).
var opByCode = [256]MutationOp{
	1: OpPut, 2: OpAnnotate, 3: OpSetVisibility, 4: OpDelete, 7: OpMarkInvalid,
	8: OpMarkValid, 9: OpMarkStale, 10: OpUpdateStats, 13: OpReplaceText,
}

// opCodes inverts opByCode; an op it does not hold has no code.
var opCodes = func() map[MutationOp]byte {
	m := make(map[MutationOp]byte)
	for code, op := range opByCode {
		if op != "" {
			m[op] = byte(code)
		}
	}
	return m
}()

// Presence-mask bits of a mutation body, in field order. The bits between
// them are fields only older builds wrote (upgrade.go).
const (
	hasID            = 1 << 0
	hasAnnotation    = 1 << 2
	hasVisibility    = 1 << 3
	hasReason        = 1 << 6
	hasStale         = 1 << 7
	hasStats         = 1 << 8
	hasShapedRecord  = 1 << 11
	mutationMaskBits = 12
)

// maxNumber bounds a shape or sample number read from a payload, so that the
// number and the counter after it never wrap.
const maxNumber = 1 << 62

// Record flag bits.
const (
	flagValid      = 1
	flagStatsStale = 2
)

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

// Encoder appends binary payloads to caller-supplied buffers. It holds the
// string table's scratch, so a long-lived Encoder (the WAL manager keeps one,
// used under the store's commit lock) encodes without allocating. An Encoder
// must not be used from two goroutines at once; the zero value is ready.
type Encoder struct {
	// Inline, when set, makes every put and replace-text define its shape
	// and its sample inline under their numbers instead of referring to
	// them. The WAL manager sets it once an append has failed: a definition
	// the failure dropped must never be the target of a later reference.
	Inline bool
	// defined holds the numbers of the samples the snapshot being written
	// has defined so far (AppendSnapshotHeader starts a snapshot): a bitset
	// of 64-number words, keyed by number/64, so that the dense numbers of
	// a store's samples cost a bit each.
	defined map[uint64]uint64

	// slots is an open-addressed hash table over strs: 0 is empty, otherwise
	// the 1-based index of the interned string.
	slots [256]uint8
	strs  [maxInterned]string
	n     int
	// record is scratch: a chunk's records are encoded into it so their
	// length prefix can be written first, and Mutation.Encode sizes its
	// result from it.
	record []byte
}

func (e *Encoder) resetTable() {
	if e.n > 0 {
		e.slots = [256]uint8{}
		clear(e.strs[:e.n])
		e.n = 0
	}
}

// str appends one string through the string table.
func (e *Encoder) str(dst []byte, s string) []byte {
	n := len(s)
	if n == 0 {
		return append(dst, 0)
	}
	h := uint32(n)*0x9e3779b1 + uint32(s[0])*31 + uint32(s[n-1])*131 + uint32(s[n/2])*17
	for i := uint8(h>>24) ^ uint8(h); ; i++ {
		slot := e.slots[i]
		if slot == 0 {
			if e.n < maxInterned {
				e.strs[e.n] = s
				e.n++
				e.slots[i] = uint8(e.n)
			}
			break
		}
		if e.strs[slot-1] == s {
			return binary.AppendUvarint(dst, uint64(slot-1)<<1|1)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(n)<<1)
	return append(dst, s...)
}

func (e *Encoder) strSliceTo(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(ss))+1)
	for _, s := range ss {
		dst = e.str(dst, s)
	}
	return dst
}

func appendTime(dst []byte, t time.Time) []byte {
	_, off := t.Zone()
	dst = binary.AppendVarint(dst, t.Unix())
	dst = binary.AppendUvarint(dst, uint64(t.Nanosecond()))
	return binary.AppendVarint(dst, int64(off))
}

func (e *Encoder) stats(dst []byte, st *RuntimeStats) []byte {
	dst = binary.AppendVarint(dst, int64(st.ExecTime))
	dst = binary.AppendVarint(dst, int64(st.ResultRows))
	dst = binary.AppendVarint(dst, int64(st.ResultColumns))
	dst = e.str(dst, st.Error)
	dst = binary.AppendVarint(dst, st.SchemaVersion)
	return appendTime(dst, st.ExecutedAt)
}

func (e *Encoder) sample(dst []byte, s *OutputSample) []byte {
	dst = e.strSliceTo(dst, s.Columns)
	if s.Rows == nil {
		dst = append(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(s.Rows))+1)
		for _, row := range s.Rows {
			dst = e.strSliceTo(dst, row)
		}
	}
	dst = binary.AppendVarint(dst, int64(s.TotalRows))
	return wire.AppendBool(dst, s.Truncated)
}

func (e *Encoder) annotation(dst []byte, a *Annotation) []byte {
	dst = e.str(dst, a.Author)
	dst = e.str(dst, a.Text)
	dst = e.str(dst, a.Fragment)
	return appendTime(dst, a.At)
}

// shapeBody appends a shape's values: the text and canonical forms, both
// hashes, then the feature relations.
func (e *Encoder) shapeBody(dst []byte, sh *QueryShape) []byte {
	dst = e.str(dst, sh.Text)
	dst = e.str(dst, sh.Canonical)
	dst = e.str(dst, sh.Template)
	dst = binary.LittleEndian.AppendUint64(dst, sh.Fingerprint)
	dst = binary.LittleEndian.AppendUint64(dst, sh.ExactHash)
	dst = e.strSliceTo(dst, sh.Tables)
	if sh.Attributes == nil {
		dst = append(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(sh.Attributes))+1)
		for i := range sh.Attributes {
			a := &sh.Attributes[i]
			dst = e.str(dst, a.Attr)
			dst = e.str(dst, a.Rel)
			dst = e.str(dst, a.Clause)
		}
	}
	if sh.Predicates == nil {
		dst = append(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(sh.Predicates))+1)
		for i := range sh.Predicates {
			p := &sh.Predicates[i]
			dst = e.str(dst, p.Attr)
			dst = e.str(dst, p.Rel)
			dst = e.str(dst, p.Op)
			dst = e.str(dst, p.Const)
			dst = wire.AppendBool(dst, p.IsJoin)
			dst = e.str(dst, p.RightRel)
			dst = e.str(dst, p.RightAttr)
		}
	}
	dst = e.strSliceTo(dst, sh.Aggregates)
	dst = e.strSliceTo(dst, sh.GroupBy)
	return e.strSliceTo(dst, sh.Features)
}

// instanceBody appends a record's own fields, everything but its shape. Its
// sample opens with tag (see sampleTag).
func (e *Encoder) instanceBody(dst []byte, rec *QueryRecord, tag uint64) []byte {
	dst = binary.AppendVarint(dst, int64(rec.ID))
	dst = e.str(dst, rec.User)
	dst = e.str(dst, rec.Group)
	dst = binary.AppendVarint(dst, int64(rec.Visibility))
	dst = appendTime(dst, rec.IssuedAt)
	dst = e.stats(dst, &rec.Stats)
	dst = binary.AppendUvarint(dst, tag)
	if inlineTag(tag) {
		dst = e.sample(dst, rec.Sample)
	}
	if rec.Annotations == nil {
		dst = append(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(rec.Annotations))+1)
		for i := range rec.Annotations {
			dst = e.annotation(dst, &rec.Annotations[i])
		}
	}
	var flags byte
	if rec.Valid {
		flags |= flagValid
	}
	if rec.StatsStale {
		flags |= flagStatsStale
	}
	return e.str(append(dst, flags), rec.InvalidReason)
}

// sampleTag is the uvarint that opens a record's sample: 0 for none, 1 for
// a sample written inline without a number, number<<1 for one written inline
// under its number, and number<<1|1 for a reference to a number defined
// before. A sample no store numbered is written inline whatever ref says.
func sampleTag(sm *OutputSample, ref bool) uint64 {
	switch {
	case sm == nil:
		return 0
	case sm.seq == 0:
		return 1
	case ref:
		return sm.seq<<1 | 1
	default:
		return sm.seq << 1
	}
}

// inlineTag reports whether a sample tag is followed by the sample's body.
func inlineTag(tag uint64) bool { return tag == 1 || tag != 0 && tag&1 == 0 }

// shapedRecord appends the record of a put or replace-text: its shape's
// number, shifted left one bit with the low bit set for a reference, then the
// shape body unless it is a reference, then the record's own fields. The
// shape is the one the store interned for the record (a replace-text's is
// its new version's, not the caller's copy). It is defined inline when the
// mutation entered it, when the encoder writes every definition inline, and
// when no store holds it (its number is then the one it was read under, or
// 0); otherwise the frame refers to it. The record's sample follows the same
// rule. A reference read from the log and not yet applied is written back as
// it was. It returns false for a record with neither a shape nor a reference.
func (e *Encoder) shapedRecord(dst []byte, m *Mutation) ([]byte, bool) {
	rec := m.Record
	tag := m.sampleRef<<1 | 1
	if m.sampleRef == 0 {
		sm := rec.Sample
		tag = sampleTag(sm, sm != nil && sm.interned && !m.entered.sample && !e.Inline)
	}
	if m.shapeRef != 0 {
		dst = binary.AppendUvarint(dst, m.shapeRef<<1|1)
		return e.instanceBody(dst, rec, tag), true
	}
	sh := rec.QueryShape
	if m.Op == OpReplaceText && m.next != nil {
		sh = m.next.QueryShape
	}
	if sh == nil {
		return dst, false
	}
	if sh.interned && !m.entered.shape && !e.Inline {
		dst = binary.AppendUvarint(dst, sh.seq<<1|1)
	} else {
		dst = binary.AppendUvarint(dst, sh.seq<<1)
		dst = e.shapeBody(dst, sh)
	}
	return e.instanceBody(dst, rec, tag), true
}

// AppendMutation appends the mutation's payload to dst. It fails only for an
// op that has no code and for a record without a shape; dst is returned
// unchanged then.
func (e *Encoder) AppendMutation(dst []byte, m *Mutation) ([]byte, error) {
	code, ok := opCodes[m.Op]
	if !ok {
		return dst, fmt.Errorf("storage: encoding mutation: unknown op %q", m.Op)
	}
	e.resetTable()
	var mask uint64
	if m.ID != 0 {
		mask |= hasID
	}
	if m.Record != nil {
		mask |= hasShapedRecord
	}
	if m.Annotation != nil {
		mask |= hasAnnotation
	}
	if m.Visibility != 0 {
		mask |= hasVisibility
	}
	if m.Reason != "" {
		mask |= hasReason
	}
	if m.Stale {
		mask |= hasStale
	}
	if m.Stats != nil {
		mask |= hasStats
	}
	start := len(dst)
	dst = append(dst, PayloadFormat, code)
	dst = binary.AppendUvarint(dst, mask)
	if mask&hasID != 0 {
		dst = binary.AppendVarint(dst, int64(m.ID))
	}
	if mask&hasShapedRecord != 0 {
		var ok bool
		if dst, ok = e.shapedRecord(dst, m); !ok {
			return dst[:start], fmt.Errorf("storage: encoding mutation: the %s record has no shape", m.Op)
		}
	}
	if mask&hasAnnotation != 0 {
		dst = e.annotation(dst, m.Annotation)
	}
	if mask&hasVisibility != 0 {
		dst = binary.AppendVarint(dst, int64(m.Visibility))
	}
	if mask&hasReason != 0 {
		dst = e.str(dst, m.Reason)
	}
	if mask&hasStats != 0 {
		dst = e.stats(dst, m.Stats)
	}
	return dst, nil
}

// encoderPool serves Mutation.Encode, whose callers have no Encoder of their
// own.
var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// Encode serialises the mutation as one binary payload. A put or
// replace-text whose shape a store already held refers to it by number, so
// its payload decodes against the state its log prefix built.
func (m *Mutation) Encode() ([]byte, error) {
	e := encoderPool.Get().(*Encoder)
	defer encoderPool.Put(e)
	// Through the encoder's scratch, so the result is one exact-size
	// allocation instead of a buffer grown by doubling.
	b, err := e.AppendMutation(e.record[:0], m)
	if err != nil {
		return nil, err
	}
	e.record = b
	return append([]byte(nil), b...), nil
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

// decoder reads one record's worth of payload: a wire.Reader plus the string
// table of the literals seen so far. sampleRef is the sample number the last
// instance body read referred to, for the caller to resolve: the record then
// has no sample.
type decoder struct {
	r         wire.Reader
	strs      [maxInterned]string
	n         int
	sampleRef uint64
}

func (d *decoder) str() string {
	v := d.r.Uvarint()
	if v&1 == 1 {
		if i := v >> 1; i < uint64(d.n) {
			return d.strs[i]
		}
		d.r.Fail(errors.New("string reference past the table"))
		return ""
	}
	s := d.r.Take(v >> 1)
	if len(s) > 0 && d.n < maxInterned {
		d.strs[d.n] = s
		d.n++
	}
	return s
}

// The fewest payload bytes one element of each slice can take: an empty
// string or a nil row is one byte, a time is three varints. count checks a
// length against them before anything is sized from it, so no slice the
// decoder makes holds more elements than the bytes left could encode — a
// payload can cost at most a bounded multiple of its own size in memory,
// whatever its counts claim (TestDecodeCountsCannotAmplify).
const (
	minStringBytes     = 1
	minRowBytes        = 1
	minAttributeBytes  = 3 * minStringBytes
	minPredicateBytes  = 6*minStringBytes + 1
	minAnnotationBytes = 3*minStringBytes + 3
)

// count reads a nil-aware slice length for elements of at least elemBytes
// encoded bytes each: (0, false) for nil, (n, true) otherwise.
func (d *decoder) count(elemBytes int) (int, bool) {
	v := d.r.Uvarint()
	if v == 0 {
		return 0, false
	}
	if v-1 > uint64(d.r.Len()/elemBytes) {
		d.r.Fail(fmt.Errorf("count %d of %d-byte elements exceeds the %d bytes left", v-1, elemBytes, d.r.Len()))
		return 0, false
	}
	return int(v - 1), true
}

func (d *decoder) strSlice() []string {
	n, ok := d.count(minStringBytes)
	if !ok {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *decoder) time() time.Time {
	sec, nsec, off := d.r.Varint(), d.r.Uvarint(), d.r.Varint()
	if nsec >= 1e9 || off <= -86400 || off >= 86400 {
		d.r.Fail(errors.New("time out of range"))
		return time.Time{}
	}
	t := time.Unix(sec, int64(nsec))
	if off == 0 {
		return t.UTC()
	}
	return t.In(time.FixedZone("", int(off)))
}

func (d *decoder) stats(st *RuntimeStats) {
	st.ExecTime = time.Duration(d.r.Varint())
	st.ResultRows = d.r.Int()
	st.ResultColumns = d.r.Int()
	st.Error = d.str()
	st.SchemaVersion = d.r.Varint()
	st.ExecutedAt = d.time()
}

func (d *decoder) sample() *OutputSample {
	s := &OutputSample{Columns: d.strSlice()}
	if n, ok := d.count(minRowBytes); ok {
		s.Rows = make([][]string, n)
		// Rows are cut from one backing array sized from the first row's
		// width (a sample's rows all have one cell per column), capped by
		// the cells the bytes left could hold.
		var flat []string
		for i := range s.Rows {
			c, ok := d.count(minStringBytes)
			if !ok {
				continue
			}
			if c == 0 {
				s.Rows[i] = []string{}
				continue
			}
			if c > len(flat) {
				cells := d.r.Len() / minStringBytes // >= c: count checked it
				if rows := n - i; c <= cells/rows {
					cells = c * rows
				}
				flat = make([]string, cells)
			}
			row := flat[:c:c]
			flat = flat[c:]
			for j := range row {
				row[j] = d.str()
			}
			s.Rows[i] = row
		}
	}
	s.TotalRows = d.r.Int()
	s.Truncated = d.r.Bool()
	return s
}

func (d *decoder) annotation(a *Annotation) {
	a.Author = d.str()
	a.Text = d.str()
	a.Fragment = d.str()
	a.At = d.time()
}

// shape reads a shape body into sh.
func (d *decoder) shape(sh *QueryShape) {
	d.shapeHead(sh)
	d.shapeFeatures(sh)
}

func (d *decoder) shapeHead(sh *QueryShape) {
	sh.Text = d.str()
	sh.Canonical = d.str()
	sh.Template = d.str()
	sh.Fingerprint = d.r.Uint64()
	sh.ExactHash = d.r.Uint64()
}

func (d *decoder) shapeFeatures(sh *QueryShape) {
	sh.Tables = d.strSlice()
	if n, ok := d.count(minAttributeBytes); ok {
		sh.Attributes = make([]sql.AttributeRow, n)
		for i := range sh.Attributes {
			a := &sh.Attributes[i]
			a.Attr, a.Rel, a.Clause = d.str(), d.str(), d.str()
		}
	}
	if n, ok := d.count(minPredicateBytes); ok {
		sh.Predicates = make([]sql.PredicateRow, n)
		for i := range sh.Predicates {
			p := &sh.Predicates[i]
			p.Attr, p.Rel, p.Op, p.Const = d.str(), d.str(), d.str(), d.str()
			p.IsJoin = d.r.Bool()
			p.RightRel, p.RightAttr = d.str(), d.str()
		}
	}
	sh.Aggregates = d.strSlice()
	sh.GroupBy = d.strSlice()
	sh.Features = d.strSlice()
}

// instance reads an instance body into rec.
func (d *decoder) instance(rec *QueryRecord) {
	rec.ID = QueryID(d.r.Varint())
	d.instanceHead(rec)
	d.instanceRuns(rec)
	d.instanceFlags(rec)
}

func (d *decoder) instanceHead(rec *QueryRecord) {
	rec.User = d.str()
	rec.Group = d.str()
	rec.Visibility = Visibility(d.r.Int())
	rec.IssuedAt = d.time()
}

// instanceRuns reads the stats, the sample and the annotations. A sample an
// older build wrote opens with the byte 0 or 1, which reads as tag 0 (none)
// or 1 (inline, no number).
func (d *decoder) instanceRuns(rec *QueryRecord) {
	d.stats(&rec.Stats)
	d.sampleRef = 0
	switch tag := d.r.Uvarint(); {
	case inlineTag(tag):
		rec.Sample = d.sample()
		rec.Sample.seq = d.checkNumber(tag >> 1)
	case tag != 0:
		d.sampleRef = d.checkNumber(tag >> 1)
	}
	if n, ok := d.count(minAnnotationBytes); ok {
		rec.Annotations = make([]Annotation, n)
		for i := range rec.Annotations {
			d.annotation(&rec.Annotations[i])
		}
	}
}

func (d *decoder) instanceFlags(rec *QueryRecord) {
	flags := d.r.Byte()
	if flags&^(flagValid|flagStatsStale) != 0 {
		d.r.Fail(errors.New("unknown record flag"))
	}
	rec.Valid = flags&flagValid != 0
	rec.StatsStale = flags&flagStatsStale != 0
	rec.InvalidReason = d.str()
}

// shapeNumber reads the shape number of a snapshot's shape or record.
func (d *decoder) shapeNumber() uint64 {
	return d.checkNumber(d.r.Uvarint())
}

func (d *decoder) checkNumber(num uint64) uint64 {
	if num > maxNumber {
		d.r.Fail(fmt.Errorf("number %d out of range", num))
	}
	return num
}

// shapedRecord reads the record of a put or replace-text as this build writes
// it (Encoder.shapedRecord). A reference is left unresolved on the mutation,
// with no shape on the record; an inline shape keeps the number it was
// defined under.
func (d *decoder) shapedRecord(m *Mutation) {
	rec := &QueryRecord{}
	v := d.r.Uvarint()
	num, ref := d.checkNumber(v>>1), v&1 == 1
	if ref {
		if num == 0 {
			d.r.Fail(errors.New("reference to shape 0"))
		}
		m.shapeRef = num
	} else {
		rec.QueryShape = &QueryShape{numbered: numbered{seq: num}}
		d.shape(rec.QueryShape)
	}
	d.instance(rec)
	m.Record = rec
}

// checkFormat validates a payload's two leading bytes and returns its kind.
// A kind only older builds wrote fails with ErrOlderFormat unless older says
// the caller is the upgrade's reader.
func checkFormat(p []byte, older bool) (kind byte, err error) {
	if len(p) > 0 && p[0] == '{' {
		return 0, ErrPreBinaryPayload
	}
	if len(p) < 2 {
		return 0, wire.ErrTruncated
	}
	if p[0] != PayloadFormat {
		return 0, fmt.Errorf("unknown payload format %d (this build reads format %d)", p[0], PayloadFormat)
	}
	if !older && olderKind(p[1]) {
		return 0, fmt.Errorf("%w: payload kind %#x", ErrOlderFormat, p[1])
	}
	return p[1], nil
}

// DecodeMutation parses one payload this build writes back into a mutation.
// The result shares no memory with p. Nothing half-decoded is ever returned:
// any error yields a nil mutation. A payload with an op or a field only an
// older build wrote fails with ErrOlderFormat.
func DecodeMutation(p []byte) (*Mutation, error) {
	return decodeMutation(p, nil)
}

// decodeMutation reads a mutation body's fields in order. older, when set,
// reads what only an older build wrote, at its place in the body; without
// it such a payload is refused.
func decodeMutation(p []byte, older *olderMutation) (*Mutation, error) {
	kind, err := checkFormat(p, older != nil)
	if err != nil {
		return nil, fmt.Errorf("storage: decoding mutation: %w", err)
	}
	op := opByCode[kind]
	if op == "" && (older == nil || !olderKind(kind) || kind >= kindParentSnapshotHeader) {
		return nil, fmt.Errorf("storage: decoding mutation: unknown op code %d", kind)
	}
	d := decoder{r: wire.NewReader(p[2:])}
	m := &Mutation{Op: op}
	mask := d.r.Uvarint()
	if mask>>mutationMaskBits != 0 {
		return nil, fmt.Errorf("storage: decoding mutation: unknown field bits %#x", mask)
	}
	if older == nil && mask&olderFields != 0 {
		return nil, fmt.Errorf("storage: decoding %s mutation: field bits %#x: %w", m.Op, mask&olderFields, ErrOlderFormat)
	} else if older != nil {
		older.code, older.fields = kind, mask&olderFields
	}
	if mask&hasID != 0 {
		m.ID = QueryID(d.r.Varint())
	}
	if mask&hasShapedRecord != 0 {
		d.shapedRecord(m)
	}
	older.read(&d, m, mask&hasRecord)
	m.sampleRef = d.sampleRef
	if mask&hasAnnotation != 0 {
		m.Annotation = &Annotation{}
		d.annotation(m.Annotation)
	}
	if mask&hasVisibility != 0 {
		m.Visibility = Visibility(d.r.Int())
	}
	older.read(&d, m, mask&(hasSessionID|hasSessionEdge))
	if mask&hasReason != 0 {
		m.Reason = d.str()
	}
	m.Stale = mask&hasStale != 0
	if mask&hasStats != 0 {
		m.Stats = &RuntimeStats{}
		d.stats(m.Stats)
	}
	older.read(&d, m, mask&(hasSample|hasScore))
	if err := d.r.Finish(); err != nil {
		return nil, fmt.Errorf("storage: decoding %s mutation: %w", m.Op, err)
	}
	return m, nil
}
