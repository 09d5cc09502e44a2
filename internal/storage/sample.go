package storage

import (
	"errors"
	"hash/maphash"
	"math/bits"
	"slices"
)

// The sample dictionary (dict.go). The profiler logs an output sample with
// every query, and a query debugged once and re-run against unchanged data
// answers with the same sample again and again, so the store keeps one
// OutputSample per distinct value, the way it keeps one shape per distinct
// text. A sample is keyed by a content hash, confirmed by an equality check;
// records count their references to it (refs).

// ErrUnknownSample reports a record read from the log or a snapshot whose
// sample number names no live sample, or a sample with other values: the log
// does not belong to the state it is applied to.
var ErrUnknownSample = errors.New("storage: sample number does not match the store")

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

// same reports whether two samples hold equal values. A nil slice and an
// empty one differ, as they do on disk, so adopting a sample never changes a
// record's value.
func (sm *OutputSample) same(o *OutputSample) bool {
	return sm == o || sm.TotalRows == o.TotalRows && sm.Truncated == o.Truncated &&
		sameSlice(sm.Columns, o.Columns) && slices.EqualFunc(sm.Rows, o.Rows, sameSlice[string]) &&
		(sm.Rows == nil) == (o.Rows == nil)
}

// values returns a new sample holding the same values, sharing their slices,
// with nothing a store derived but the hash.
func (sm *OutputSample) values() *OutputSample {
	return &OutputSample{Columns: sm.Columns, Rows: sm.Rows, TotalRows: sm.TotalRows, Truncated: sm.Truncated, hash: sm.hash}
}

// key is the sample's content hash.
func (sm *OutputSample) key() uint64 {
	sm.prepare()
	return sm.hash
}

// SampleCount returns how many distinct output samples the store holds.
func (s *Store) SampleCount() int {
	s.index.mu.RLock()
	defer s.index.mu.RUnlock()
	return len(s.index.samples.byNum)
}
