package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/wire"
)

// The binary record codec. One encoder and one decoder serve every place a
// QueryRecord or Mutation leaves memory: WAL frames, snapshot record chunks
// and the replication stream (which ships those same frames).
//
// Every payload starts with two bytes, the format version and a kind:
//
//	0x01 | kind | body
//
// For a mutation the kind is its op code (1..13, see opByCode); the snapshot
// payloads use 0x40 and up. The first byte is never '{', so a payload
// written by a JSON-era build is recognised and refused by name
// (ErrPreBinaryPayload) instead of being misparsed.
//
// Body primitives (internal/wire): unsigned and zigzag varints, fixed 8-byte
// little-endian words for hashes and float bits, and strings. A slice is
// uvarint(0) when nil and uvarint(len+1) otherwise, so nil and empty survive
// a round trip. A time is varint unix seconds, uvarint nanoseconds, varint
// zone offset in seconds east of UTC — the instant and the offset RFC 3339
// would print, including the zero time.
//
// Strings go through a per-record string table built as the payload is
// written: the first occurrence of a string is a literal, uvarint(len<<1)
// followed by the bytes, and takes the next table index; a repeat is the
// back-reference uvarint(index<<1|1). Table, attribute and user names recur
// many times inside one record (Tables, Attributes, Predicates, Features),
// and Text, Canonical and Template are often the same string. The table
// holds at most maxInterned strings; later literals are written but not
// indexed. It is reset for every record, so each WAL payload and each record
// inside a snapshot chunk decodes on its own.
//
// Mutation body: uvarint presence mask (one bit per field that is set, in
// the order below), then the present fields in that order:
//
//	ID varint | Record | Annotation | Visibility varint | Session varint |
//	Edge | Reason str | Stale (mask bit only) | Stats | Sample | Score f64
//
// Record body, every field always present, in this order:
//
//	ID varint | Text str | Canonical str | Template str | Fingerprint u64 |
//	ExactHash u64 | User str | Group str | Visibility varint | IssuedAt time |
//	Tables []str | Attributes [](Attr, Rel, Clause str) |
//	Predicates [](Attr, Rel, Op, Const str, IsJoin bool, RightRel, RightAttr str) |
//	Aggregates []str | GroupBy []str | Features []str | Stats |
//	Sample presence byte + Sample | Annotations []Annotation |
//	Session varint | flags byte (1 Valid, 2 StatsStale) | InvalidReason str |
//	Quality f64
//
//	Stats:      ExecTime varint ns | ResultRows varint | ResultColumns varint |
//	            Error str | SchemaVersion varint | ExecutedAt time
//	Sample:     Columns []str | Rows [][]str | TotalRows varint | Truncated bool
//	Annotation: Author str | Text str | Fragment str | At time
//	Edge:       From varint | To varint | Type varint | Diff plain string (no table)
//
// Session and Edge are what older builds wrote when a mining pass copied the
// session detector's windows into the log (op codes 5 and 6, and a session
// ID on every record). Sessions now live in the detector alone: this build
// writes a record's session slot as 0 and never sets the two mask bits, and
// on read it checks and drops both fields, so those logs and snapshots still
// open under payload format 1. Quality is what older builds wrote when a
// maintenance pass stored each record's quality score (op code 12, and the
// record's last word); it is computed on read now (QueryRecord.Quality), so
// this build writes the record's quality slot as 8 zero bytes and never sets
// the Score bit, and on read it drops both.

// PayloadFormat is the format version every payload starts with.
const PayloadFormat = 1

// Payload kinds above the mutation op codes.
const (
	kindSnapshotHeader = 0x40
	kindRecordChunk    = 0x41
	kindEdgeChunk      = 0x42
	kindCheckpoint     = 0x43
)

// ErrPreBinaryPayload reports a payload written by a build that stored JSON.
// There is no reader for it: the data directory has to be recreated (or the
// primary upgraded first, on a replication stream).
var ErrPreBinaryPayload = errors.New("JSON payload from a pre-binary build; this build reads payload format 1 only")

// maxInterned bounds the per-record string table. It fits the encoder's
// 256-slot hash table at half load and keeps every back-reference within two
// bytes.
const maxInterned = 127

// opByCode is the on-disk op code table: an op's code is its index. The
// codes are the format — never renumber one.
var opByCode = [...]MutationOp{
	1: OpPut, 2: OpAnnotate, 3: OpSetVisibility, 4: OpDelete, 5: OpSessionAssignment,
	6: OpSessionEdge, 7: OpMarkInvalid, 8: OpMarkValid, 9: OpMarkStale,
	10: OpUpdateStats, 11: OpSetSample, 12: OpSetQuality, 13: OpReplaceText,
}

// opCodes inverts opByCode; an op it does not hold has no code.
var opCodes = func() map[MutationOp]byte {
	m := make(map[MutationOp]byte, len(opByCode))
	for code, op := range opByCode {
		if op != "" {
			m[op] = byte(code)
		}
	}
	return m
}()

// Presence-mask bits of a mutation body, in field order.
const (
	hasID = 1 << iota
	hasRecord
	hasAnnotation
	hasVisibility
	hasSessionID
	hasSessionEdge
	hasReason
	hasStale
	hasStats
	hasSample
	hasScore
	mutationMaskBits = iota
)

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

// recordBody appends a record body. It does not reset the string table:
// inside a mutation the record shares it with the mutation's other fields.
func (e *Encoder) recordBody(dst []byte, rec *QueryRecord) []byte {
	dst = binary.AppendVarint(dst, int64(rec.ID))
	dst = e.str(dst, rec.Text)
	dst = e.str(dst, rec.Canonical)
	dst = e.str(dst, rec.Template)
	dst = binary.LittleEndian.AppendUint64(dst, rec.Fingerprint)
	dst = binary.LittleEndian.AppendUint64(dst, rec.ExactHash)
	dst = e.str(dst, rec.User)
	dst = e.str(dst, rec.Group)
	dst = binary.AppendVarint(dst, int64(rec.Visibility))
	dst = appendTime(dst, rec.IssuedAt)
	dst = e.strSliceTo(dst, rec.Tables)
	if rec.Attributes == nil {
		dst = append(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(rec.Attributes))+1)
		for i := range rec.Attributes {
			a := &rec.Attributes[i]
			dst = e.str(dst, a.Attr)
			dst = e.str(dst, a.Rel)
			dst = e.str(dst, a.Clause)
		}
	}
	if rec.Predicates == nil {
		dst = append(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(rec.Predicates))+1)
		for i := range rec.Predicates {
			p := &rec.Predicates[i]
			dst = e.str(dst, p.Attr)
			dst = e.str(dst, p.Rel)
			dst = e.str(dst, p.Op)
			dst = e.str(dst, p.Const)
			dst = wire.AppendBool(dst, p.IsJoin)
			dst = e.str(dst, p.RightRel)
			dst = e.str(dst, p.RightAttr)
		}
	}
	dst = e.strSliceTo(dst, rec.Aggregates)
	dst = e.strSliceTo(dst, rec.GroupBy)
	dst = e.strSliceTo(dst, rec.Features)
	dst = e.stats(dst, &rec.Stats)
	if rec.Sample == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
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
	dst = append(dst, 0) // the session slot
	var flags byte
	if rec.Valid {
		flags |= flagValid
	}
	if rec.StatsStale {
		flags |= flagStatsStale
	}
	dst = append(dst, flags)
	dst = e.str(dst, rec.InvalidReason)
	return binary.LittleEndian.AppendUint64(dst, 0) // the quality slot
}

// AppendMutation appends the mutation's payload to dst. It fails only for an
// op that has no code; dst is returned unchanged then.
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
		mask |= hasRecord
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
	if m.Sample != nil {
		mask |= hasSample
	}
	dst = append(dst, PayloadFormat, code)
	dst = binary.AppendUvarint(dst, mask)
	if mask&hasID != 0 {
		dst = binary.AppendVarint(dst, int64(m.ID))
	}
	if mask&hasRecord != 0 {
		dst = e.recordBody(dst, m.Record)
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
	if mask&hasSample != 0 {
		dst = e.sample(dst, m.Sample)
	}
	return dst, nil
}

// encoderPool serves Mutation.Encode, whose callers have no Encoder of their
// own.
var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// Encode serialises the mutation as one self-contained binary payload.
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
// table of the literals seen so far.
type decoder struct {
	r    wire.Reader
	strs [maxInterned]string
	n    int
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
// payload can cost at most maxDecodeAmplification times its own size in
// memory, whatever its counts claim.
const (
	minStringBytes     = 1
	minRowBytes        = 1
	minAttributeBytes  = 3 * minStringBytes
	minPredicateBytes  = 6*minStringBytes + 1
	minAnnotationBytes = 3*minStringBytes + 3
	// maxDecodeAmplification is the largest in-memory to encoded size ratio
	// among those elements: a 24-byte slice header for a one-byte nil row.
	maxDecodeAmplification = 24
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

func (d *decoder) record() *QueryRecord {
	sh := &QueryShape{}
	rec := &QueryRecord{QueryShape: sh}
	rec.ID = QueryID(d.r.Varint())
	sh.Text = d.str()
	sh.Canonical = d.str()
	sh.Template = d.str()
	sh.Fingerprint = d.r.Uint64()
	sh.ExactHash = d.r.Uint64()
	rec.User = d.str()
	rec.Group = d.str()
	rec.Visibility = Visibility(d.r.Int())
	rec.IssuedAt = d.time()
	sh.Tables = d.strSlice()
	if n, ok := d.count(minAttributeBytes); ok {
		sh.Attributes = make([]AttributeRow, n)
		for i := range sh.Attributes {
			a := &sh.Attributes[i]
			a.Attr, a.Rel, a.Clause = d.str(), d.str(), d.str()
		}
	}
	if n, ok := d.count(minPredicateBytes); ok {
		sh.Predicates = make([]PredicateRow, n)
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
	d.stats(&rec.Stats)
	if d.r.Bool() {
		rec.Sample = d.sample()
	}
	if n, ok := d.count(minAnnotationBytes); ok {
		rec.Annotations = make([]Annotation, n)
		for i := range rec.Annotations {
			d.annotation(&rec.Annotations[i])
		}
	}
	d.r.Varint() // the session slot: an older build's session ID, dropped
	flags := d.r.Byte()
	if flags&^(flagValid|flagStatsStale) != 0 {
		d.r.Fail(errors.New("unknown record flag"))
	}
	rec.Valid = flags&flagValid != 0
	rec.StatsStale = flags&flagStatsStale != 0
	rec.InvalidReason = d.str()
	d.r.Uint64() // the quality slot: an older build's stored score, dropped
	return rec
}

// skipEdge reads and drops one session edge as older builds wrote it, into
// add-edge mutations and snapshot edge chunks.
func skipEdge(r *wire.Reader) {
	r.Varint() // from
	r.Varint() // to
	r.Int()    // type
	r.Take(r.Uvarint())
}

// checkFormat validates a payload's two leading bytes and returns its kind.
func checkFormat(p []byte) (kind byte, err error) {
	if len(p) > 0 && p[0] == '{' {
		return 0, ErrPreBinaryPayload
	}
	if len(p) < 2 {
		return 0, wire.ErrTruncated
	}
	if p[0] != PayloadFormat {
		return 0, fmt.Errorf("unknown payload format %d (this build reads format %d)", p[0], PayloadFormat)
	}
	return p[1], nil
}

// DecodeMutation parses one binary payload back into a mutation. The result
// shares no memory with p. Nothing half-decoded is ever returned: any error
// yields a nil mutation.
func DecodeMutation(p []byte) (*Mutation, error) {
	kind, err := checkFormat(p)
	if err != nil {
		return nil, fmt.Errorf("storage: decoding mutation: %w", err)
	}
	if int(kind) >= len(opByCode) || opByCode[kind] == "" {
		return nil, fmt.Errorf("storage: decoding mutation: unknown op code %d", kind)
	}
	d := decoder{r: wire.NewReader(p[2:])}
	m := &Mutation{Op: opByCode[kind]}
	mask := d.r.Uvarint()
	if mask>>mutationMaskBits != 0 {
		return nil, fmt.Errorf("storage: decoding mutation: unknown field bits %#x", mask)
	}
	if mask&hasID != 0 {
		m.ID = QueryID(d.r.Varint())
	}
	if mask&hasRecord != 0 {
		m.Record = d.record()
	}
	if mask&hasAnnotation != 0 {
		m.Annotation = &Annotation{}
		d.annotation(m.Annotation)
	}
	if mask&hasVisibility != 0 {
		m.Visibility = Visibility(d.r.Int())
	}
	if mask&hasSessionID != 0 {
		d.r.Varint() // dropped, like the op that carries it
	}
	if mask&hasSessionEdge != 0 {
		skipEdge(&d.r)
	}
	if mask&hasReason != 0 {
		m.Reason = d.str()
	}
	m.Stale = mask&hasStale != 0
	if mask&hasStats != 0 {
		m.Stats = &RuntimeStats{}
		d.stats(m.Stats)
	}
	if mask&hasSample != 0 {
		m.Sample = d.sample()
	}
	if mask&hasScore != 0 {
		d.r.Uint64() // dropped, like the op that carries it
	}
	if err := d.r.Finish(); err != nil {
		return nil, fmt.Errorf("storage: decoding %s mutation: %w", m.Op, err)
	}
	return m, nil
}
