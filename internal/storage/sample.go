package storage

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
)

// The sample dictionary. The profiler logs an output sample with every query,
// and a query debugged once and re-run against unchanged data answers with
// the same sample again and again, so the store keeps one OutputSample per
// distinct value, the way it keeps one shape per distinct text. A sample is
// keyed by a content hash, confirmed by an equality check; records count
// their references to it, and it leaves the dictionary with its last record.
// Like a shape, it has a number fixed by the log (OutputSample.Number): the
// frame that enters it writes it inline under that number, and every later
// frame and snapshot record names the number instead (FORMAT.md).
//
// Two values under one 64-bit hash would cost a second copy, never a wrong
// one: the first is the one the hash finds, and the other is numbered but
// not shared.

// ErrUnknownSample reports a record read from the log or a snapshot whose
// sample number names no live sample, or a sample with other values: the log
// does not belong to the state it is applied to.
var ErrUnknownSample = errors.New("storage: sample number does not match the store")

// samples is the store's sample dictionary, guarded by index.mu.
type samples struct {
	// byNum holds the live samples by number; byHash holds them by content
	// hash, but for a second value under a hash another live sample holds.
	// nextSeq is the number the next new sample takes: one more than the
	// highest number ever entered, so no number is reused.
	byNum   map[uint64]*OutputSample
	byHash  map[uint64]*OutputSample
	nextSeq uint64
}

// reset empties the dictionary, sized for about n samples.
func (d *samples) reset(n int) {
	d.byNum = make(map[uint64]*OutputSample, n)
	d.byHash = make(map[uint64]*OutputSample, n)
	d.nextSeq = 1
}

// hashSeed keys the content hash. The hash never leaves the process, so a
// per-process seed is enough.
var hashSeed = maphash.MakeSeed()

// prepare computes the content hash of a sample no store holds, so that
// interning it under the commit lock is a map lookup and an equality check.
// The live write paths call it before taking the lock. Values that differ
// only by a nil slice against an empty one hash apart, as they compare.
func (sm *OutputSample) prepare() {
	if sm.hash != 0 {
		return
	}
	h := mix(uint64(sm.TotalRows), 0)
	if sm.Truncated {
		h = mix(h, 1)
	}
	h = hashStrings(h, sm.Columns)
	h = mix(h, sliceLen(len(sm.Rows), sm.Rows == nil))
	for _, row := range sm.Rows {
		h = hashStrings(h, row)
	}
	sm.hash = h | 1 // never 0, which means not yet hashed
}

func hashStrings(h uint64, ss []string) uint64 {
	h = mix(h, sliceLen(len(ss), ss == nil))
	for _, s := range ss {
		h = mix(h, maphash.String(hashSeed, s))
	}
	return h
}

// sliceLen is a slice's length as the hash takes it: 0 for nil.
func sliceLen(n int, isNil bool) uint64 {
	if isNil {
		return 0
	}
	return uint64(n) + 1
}

func mix(h, x uint64) uint64 { return bits.RotateLeft64((h^x)*0x9e3779b97f4a7c15, 29) }

// sameSample reports whether two samples hold equal values. A nil slice and
// an empty one differ, as they do on disk, so adopting a sample never changes
// a record's value.
func sameSample(a, b *OutputSample) bool {
	return a == b || a.TotalRows == b.TotalRows && a.Truncated == b.Truncated &&
		sameSlice(a.Columns, b.Columns) && slices.EqualFunc(a.Rows, b.Rows, sameSlice[string]) &&
		(a.Rows == nil) == (b.Rows == nil)
}

// values returns a new sample holding the same values, sharing their slices,
// with nothing a store derived but the hash.
func (sm *OutputSample) values() *OutputSample {
	return &OutputSample{Columns: sm.Columns, Rows: sm.Rows, TotalRows: sm.TotalRows, Truncated: sm.Truncated, hash: sm.hash}
}

// Number returns the sample's number in the store that holds it: its
// creation rank, fixed by the log so that every store rebuilt from the log
// numbers it alike. It is 0 for a sample no store has numbered.
func (sm *OutputSample) Number() uint64 { return sm.seq }

// SampleCount returns how many distinct output samples the store holds.
func (s *Store) SampleCount() int {
	s.index.mu.RLock()
	defer s.index.mu.RUnlock()
	return len(s.index.samples.byNum)
}

// lookup returns the dictionary's sample equal to sm, or nil.
func (d *samples) lookup(sm *OutputSample) *OutputSample {
	sm.prepare()
	if have := d.byHash[sm.hash]; have != nil && sameSample(have, sm) {
		return have
	}
	return nil
}

func (d *samples) enter(sm *OutputSample, num uint64) {
	sm.prepare()
	sm.seq, sm.interned = num, true
	d.byNum[num] = sm
	d.nextSeq = max(d.nextSeq, num+1)
	if d.byHash[sm.hash] == nil {
		d.byHash[sm.hash] = sm
	}
}

// intern points a record about to be published at the dictionary's sample
// for it and counts the reference. It reports whether the record entered its
// sample, which the log then defines inline. The rules are the shapes' (see
// index.internLocked): a sample the dictionary holds is adopted as it is; a
// definition read from the log enters under its number (resolve checked that
// the number is free); any other sample adopts the dictionary's equal one,
// or enters under the next number — as a copy when another store, or this
// one before its last record went, numbered it.
func (d *samples) intern(rec *QueryRecord) (entered bool) {
	sm := rec.Sample
	if sm == nil {
		return false
	}
	var held *OutputSample
	if sm.seq != 0 {
		held = d.byNum[sm.seq]
	}
	switch {
	case sm.interned && held == sm:
	case !sm.interned && sm.seq != 0 && held == nil:
		d.enter(sm, sm.seq)
		entered = true
	default:
		if have := d.lookup(sm); have != nil {
			sm = have
			break
		}
		if sm.interned || sm.seq != 0 {
			sm = sm.values()
		}
		d.enter(sm, d.nextSeq)
		entered = true
	}
	sm.refs++
	rec.Sample = sm
	return entered
}

// release drops a reference to a sample, and the sample from the dictionary
// with its last record.
func (d *samples) release(sm *OutputSample) {
	if sm == nil {
		return
	}
	if sm.refs--; sm.refs > 0 {
		return
	}
	delete(d.byNum, sm.seq)
	if d.byHash[sm.hash] == sm {
		delete(d.byHash, sm.hash)
	}
}

// resolve points the record of a put or replace-text read from the log at
// the live sample its frame names: the one a reference names, or the one
// already holding the number of an inline definition when both hold equal
// values (a replay that overlaps its snapshot). A reference to a number no
// live sample has, and a definition whose number a sample with other values
// holds, are errors naming the number; the store is not changed.
func (d *samples) resolve(m *Mutation) error {
	if m.sampleRef != 0 {
		sm := d.byNum[m.sampleRef]
		if sm == nil {
			return fmt.Errorf("%w: the %s of query %d refers to sample %d, which no live query has", ErrUnknownSample, m.Op, m.targetID(), m.sampleRef)
		}
		m.Record.Sample, m.sampleRef = sm, 0
		return nil
	}
	sm := m.Record.Sample
	if sm == nil || sm.interned || sm.seq == 0 {
		return nil
	}
	have := d.byNum[sm.seq]
	switch {
	case have == nil:
	case sameSample(have, sm):
		m.Record.Sample = have
	default:
		return fmt.Errorf("%w: the %s of query %d defines sample %d, which a live sample with other values holds", ErrUnknownSample, m.Op, m.targetID(), sm.seq)
	}
	return nil
}
