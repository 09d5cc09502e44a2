package storage

import "fmt"

// The dictionaries. A query log repeats itself — a query is debugged once
// and re-run many times — so the store keeps one copy of each distinct value
// its records share, and records point at that copy: one QueryShape per
// distinct text, one OutputSample per distinct answer. Each copy has a
// number fixed by the log: the frame that enters a value into its dictionary
// writes it inline under its number, and every later frame and snapshot
// record names the number instead (internal/wal/FORMAT.md). A dict is one
// such dictionary: numbers are assigned, resolved and released only here, so
// every kind of shared value follows the same rules.
//
// A value is keyed by its content (a shape by its text, a sample by a
// content hash) and adopted only when every value is equal, so a record never
// changes value by sharing. Two unequal values under one key are both kept.
// The values' owners count their records, and release a value with its last
// record; its number is never reused.

// numbered is what a dictionary keeps on each value it holds. seq is the
// value's number: its creation rank in the dictionary, from 1, or the number
// the log it was read from defined it under; 0 for a value no store or log
// has numbered. interned says a store's dictionary holds it, now or before:
// readers may hold it, so it is never written to again.
type numbered struct {
	seq      uint64
	interned bool
}

// Number returns the value's number in the store that holds it, fixed by the
// log so that every store rebuilt from the log — by replay, from a snapshot,
// or as a follower — numbers it alike. It is 0 for a value no store has
// numbered.
func (n *numbered) Number() uint64 { return n.seq }

func (n *numbered) numbering() *numbered { return n }

// shared is a pointer to a value a dict can hold, keyed by K.
type shared[K comparable, P any] interface {
	comparable
	numbering() *numbered
	// key is the value's content key; computing it may write what it caches
	// to a value no store holds.
	key() K
	// same reports whether the value equals another, nil and empty slices
	// apart.
	same(P) bool
	// values returns a new value holding the same values, with nothing a
	// store derived.
	values() P
	// prepare derives what the store keeps on an entering value.
	prepare()
}

// dict holds live values by key and by number, guarded by index.mu.
type dict[K comparable, P shared[K, P]] struct {
	// noun names the kind in errors, and unknown is the error a number that
	// does not match the store wraps.
	noun    string
	unknown error
	byKey   map[K][]P
	byNum   map[uint64]P
	// nextSeq is the number the next new value takes: one more than the
	// highest number ever entered, so a number is never reused while a log
	// can still refer to it.
	nextSeq uint64
}

// reset empties the dictionary, sized for about n values.
func (d *dict[K, P]) reset(n int) {
	d.byKey = make(map[K][]P, n)
	d.byNum = make(map[uint64]P, n)
	d.nextSeq = 1
}

// lookup returns the dictionary's value equal to v, or nil.
func (d *dict[K, P]) lookup(v P) (none P) {
	for _, have := range d.byKey[v.key()] {
		if have.same(v) {
			return have
		}
	}
	return none
}

// enter adds v to the dictionary under number num.
func (d *dict[K, P]) enter(v P, num uint64) {
	v.prepare()
	n := v.numbering()
	n.seq, n.interned = num, true
	d.byNum[num] = v
	d.nextSeq = max(d.nextSeq, num+1)
	k := v.key()
	d.byKey[k] = append(d.byKey[k], v)
}

// leave drops a value that lost its last record.
func (d *dict[K, P]) leave(v P) {
	delete(d.byNum, v.numbering().seq)
	removeFromBucket(d.byKey, v.key(), v)
}

// intern returns the dictionary's value for a record about to be published
// whose value is v, and reports whether it entered the dictionary, which the
// log then defines inline. A value the dictionary holds is adopted as it is;
// a definition read from the log enters under the number the log gave it
// (resolve checked that the number is free); any other value adopts the
// dictionary's equal one, or enters under the next number — as a copy when
// it was interned before, by another store or by this one before its last
// record went, and readers may hold it, or when the log numbered it under a
// number that is taken.
func (d *dict[K, P]) intern(v P) (P, bool) {
	var none P
	n := v.numbering()
	held := d.byNum[n.seq]
	switch {
	case n.interned && held == v:
		return v, false
	case !n.interned && n.seq != 0 && held == none:
		d.enter(v, n.seq)
		return v, true
	}
	if have := d.lookup(v); have != none {
		return have, false
	}
	if n.interned || n.seq != 0 {
		v = v.values()
	}
	d.enter(v, d.nextSeq)
	return v, true
}

// resolve returns the live value a put or replace-text read from the log
// names: the one its reference ref names, or else, for v an inline
// definition, the one already holding v's number when both hold equal values
// (a replay that overlaps its snapshot), or v itself. A reference to a number
// no live value has, and a definition whose number a value with other values
// holds, are errors naming the number.
func (d *dict[K, P]) resolve(m *Mutation, ref uint64, v P) (P, error) {
	var none P
	if ref != 0 {
		have := d.byNum[ref]
		if have == none {
			return v, fmt.Errorf("%w: the %s of query %d refers to %s %d, which no live query has", d.unknown, m.Op, m.targetID(), d.noun, ref)
		}
		return have, nil
	}
	if v == none {
		return v, nil
	}
	n := v.numbering()
	if n.interned || n.seq == 0 {
		return v, nil
	}
	switch have := d.byNum[n.seq]; {
	case have == none:
		return v, nil
	case have.same(v):
		return have, nil
	}
	return v, fmt.Errorf("%w: the %s of query %d defines %s %d, which a live %s with other values holds", d.unknown, m.Op, m.targetID(), d.noun, n.seq, d.noun)
}
