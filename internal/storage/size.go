package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MaxRecordBytes is the largest record or mutation the store admits,
// measured by the size bounds below. The WAL derives its frame limit from
// it, so admission — not the log — is where an oversized write is refused:
// whatever a live operation applied in memory is something the log and every
// later snapshot can hold. 32 MiB is far beyond any query a person
// writes; the HTTP API's request bodies stop at 8 MiB.
const MaxRecordBytes = 32 << 20

// ErrTooLarge reports a write refused because the record it would store, or
// the mutation that would log it, exceeds MaxRecordBytes. Nothing was applied.
var ErrTooLarge = errors.New("storage: record too large")

// The size bounds are upper bounds on what the codec (codec.go) writes: every
// integer counted as a full-length varint and every string as a literal, as
// if the string table never found a repeat. They depend only on the lengths
// of a value's strings and slices, never on its numbers, so a mutation that
// changes an ID, a flag or a timestamp cannot move a record across the limit.
// They are int64 sums: a string shared by many fields is counted once per
// field and could overflow a 32-bit int.

const varintBound = binary.MaxVarintLen64

func stringBound(s string) int64 { return varintBound + int64(len(s)) }

func stringsBound(ss []string) int64 {
	n := int64(varintBound)
	for _, s := range ss {
		n += stringBound(s)
	}
	return n
}

const timeBound = 3 * varintBound

func statsBound(st *RuntimeStats) int64 {
	return 4*varintBound + stringBound(st.Error) + timeBound
}

func sampleBound(s *OutputSample) int64 {
	n := stringsBound(s.Columns) + 2*varintBound + 1
	for _, row := range s.Rows {
		n += stringsBound(row)
	}
	return n
}

func annotationBound(a *Annotation) int64 {
	return stringBound(a.Author) + stringBound(a.Text) + stringBound(a.Fragment) + timeBound
}

func recordBound(rec *QueryRecord) int64 {
	// ID, the two hashes, visibility, session, flags, the quality slot, the
	// sample's tag and the three inline slice counts.
	n := int64(10 * varintBound)
	n += stringBound(rec.Text) + stringBound(rec.Canonical) + stringBound(rec.Template)
	n += stringBound(rec.User) + stringBound(rec.Group) + stringBound(rec.InvalidReason)
	n += timeBound
	n += stringsBound(rec.Tables) + stringsBound(rec.Aggregates) + stringsBound(rec.GroupBy) + stringsBound(rec.Features)
	for i := range rec.Attributes {
		a := &rec.Attributes[i]
		n += stringBound(a.Attr) + stringBound(a.Rel) + stringBound(a.Clause)
	}
	for i := range rec.Predicates {
		p := &rec.Predicates[i]
		n += stringBound(p.Attr) + stringBound(p.Rel) + stringBound(p.Op) + stringBound(p.Const) +
			stringBound(p.RightRel) + stringBound(p.RightAttr) + 1
	}
	n += statsBound(&rec.Stats)
	if rec.Sample != nil {
		n += sampleBound(rec.Sample)
	}
	for i := range rec.Annotations {
		n += annotationBound(&rec.Annotations[i])
	}
	return n
}

// mutationBound bounds the mutation's whole payload.
func mutationBound(m *Mutation) int64 {
	// Format, kind, mask, ID and visibility.
	n := int64(2 + 3*varintBound)
	if m.Record != nil {
		n += recordBound(m.Record)
	}
	if m.Annotation != nil {
		n += annotationBound(m.Annotation)
	}
	n += stringBound(m.Reason)
	if m.Stats != nil {
		n += statsBound(m.Stats)
	}
	return n
}

// admitRecord refuses a record version the store must not hold.
func admitRecord(rec *QueryRecord) error {
	if n := recordBound(rec); n > MaxRecordBytes {
		return fmt.Errorf("%w: query %d needs up to %d bytes, the limit is %d", ErrTooLarge, rec.ID, n, MaxRecordBytes)
	}
	return nil
}

// admitMutation refuses a live mutation the log could not hold.
func admitMutation(m *Mutation) error {
	if m.Record != nil && m.Record.QueryShape == nil {
		return fmt.Errorf("storage: a %s mutation's record has no shape", m.Op)
	}
	if n := mutationBound(m); n > MaxRecordBytes {
		return fmt.Errorf("%w: a %s mutation of up to %d bytes, the limit is %d", ErrTooLarge, m.Op, n, MaxRecordBytes)
	}
	return nil
}
