package stats

import (
	"encoding/binary"
	"fmt"

	"repro/internal/wire"
)

// CheckpointVersion is the serialization version of the tracker's checkpoint
// format. Bump it when the layout changes; Restore rejects versions it does
// not understand and the bus falls back to a full rebuild. Version 1 was
// JSON; version 2 is the binary layout below.
const CheckpointVersion = 2

// The checkpoint is the exact counter maps of every bucket, written with the
// internal/wire primitives (varint counts, length-prefixed strings,
// fingerprints as fixed 8 bytes):
//
//	checkpoint: bucket "all" | bucket "public" | n x (owner string, bucket)
//	bucket:     queries | n x (user, count) | n x (fingerprint u64, count) |
//	            n x (table key, tableAgg) | n x (predicate text, count)
//	tableAgg:   count | n x (display name, count) | n x (attr key, count, rel) |
//	            n x (pred key, count, rel) | n x (join key, count, left, right)
//
// Map entries are written in iteration order: the bytes differ from run to
// run, their number and their meaning do not. Every key is written once and
// every counter is above zero — an emptied key is deleted, an owner bucket
// with nothing counted is pruned — and Restore refuses anything else: the
// section arrives over the replication stream too, and a duplicate key or a
// non-positive count would otherwise restore counters no history produces.
// The top-K summaries are not serialised — they are derived state over the
// maps — so restore reseeds them from the restored counts, which gives the
// recovered summaries exact top-capacity membership and the tightest miss
// bound; the WAL tail replay then maintains them incrementally.

func appendCounts(dst []byte, m map[string]int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	for k, n := range m {
		dst = wire.AppendString(dst, k)
		dst = binary.AppendVarint(dst, int64(n))
	}
	return dst
}

func appendItems(dst []byte, m map[string]*itemCount) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	for k, ic := range m {
		dst = wire.AppendString(dst, k)
		dst = binary.AppendVarint(dst, int64(ic.count))
		dst = wire.AppendString(dst, ic.rel)
	}
	return dst
}

func (b *bucket) appendTo(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(b.queries))
	dst = appendCounts(dst, b.users)
	dst = binary.AppendUvarint(dst, uint64(len(b.fingerprints)))
	for fp, n := range b.fingerprints {
		dst = binary.LittleEndian.AppendUint64(dst, fp)
		dst = binary.AppendVarint(dst, int64(n))
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.tables)))
	for key, ta := range b.tables {
		dst = wire.AppendString(dst, key)
		dst = binary.AppendVarint(dst, int64(ta.count))
		dst = appendCounts(dst, ta.names)
		dst = appendItems(dst, ta.attrs)
		dst = appendItems(dst, ta.preds)
		dst = binary.AppendUvarint(dst, uint64(len(ta.joins)))
		for k, jc := range ta.joins {
			dst = wire.AppendString(dst, k)
			dst = binary.AppendVarint(dst, int64(jc.count))
			dst = wire.AppendString(dst, jc.left)
			dst = wire.AppendString(dst, jc.right)
		}
	}
	return appendCounts(dst, b.preds)
}

// readCount reads one counter, which Checkpoint only writes above zero.
func readCount(r *wire.Reader) int {
	n := r.Int()
	if n <= 0 {
		r.Fail(fmt.Errorf("count %d", n))
	}
	return n
}

// readKey reads the next key of m with read, refusing one m already holds.
func readKey[K comparable, V any](r *wire.Reader, m map[K]V, read func() K) K {
	key := read()
	if _, dup := m[key]; dup {
		r.Fail(fmt.Errorf("key %v listed twice", key))
	}
	return key
}

func readCounts(r *wire.Reader) map[string]int {
	n := r.Count(2) // key, count
	m := make(map[string]int)
	for ; n > 0 && r.Err() == nil; n-- {
		key := readKey(r, m, r.String)
		m[key] = readCount(r)
	}
	return m
}

func readItems(r *wire.Reader) map[string]*itemCount {
	n := r.Count(3) // key, count, rel
	m := make(map[string]*itemCount)
	for ; n > 0 && r.Err() == nil; n-- {
		key := readKey(r, m, r.String)
		m[key] = &itemCount{count: readCount(r), rel: r.String()}
	}
	return m
}

// readBucket rebuilds one bucket from its checkpointed exact counters and
// seeds its summaries from them. An owner's bucket holds at least one query;
// the shared ones may be empty.
func readBucket(r *wire.Reader, capacity int, owner bool) *bucket {
	b := &bucket{queries: r.Int(), users: readCounts(r)}
	if b.queries < 0 || owner && b.queries == 0 {
		r.Fail(fmt.Errorf("bucket of %d queries", b.queries))
	}
	n := r.Count(9) // fingerprint, count
	b.fingerprints = make(map[uint64]int)
	for ; n > 0 && r.Err() == nil; n-- {
		fp := readKey(r, b.fingerprints, r.Uint64)
		b.fingerprints[fp] = readCount(r)
	}
	n = r.Count(6) // key, count, four maps
	b.tables = make(map[string]*tableAgg)
	for ; n > 0 && r.Err() == nil; n-- {
		key := readKey(r, b.tables, r.String)
		ta := &tableAgg{count: readCount(r), names: readCounts(r), attrs: readItems(r), preds: readItems(r)}
		j := r.Count(4) // key, count, left, right
		ta.joins = make(map[string]*joinCount)
		for ; j > 0 && r.Err() == nil; j-- {
			k := readKey(r, ta.joins, r.String)
			ta.joins[k] = &joinCount{count: readCount(r), left: r.String(), right: r.String()}
		}
		b.tables[key] = ta
	}
	b.preds = readCounts(r)
	b.reseed(capacity)
	return b
}

// Checkpoint serialises the tracker's counters. It is the tracker's
// contribution to WAL snapshot sidecars and runs in the store's
// CaptureWithCheckpoints critical section, so the counters describe exactly
// the snapshotted records.
func (t *Tracker) Checkpoint() (int, []byte, error) {
	// Encode under the lock: the maps are live, and a mutation landing
	// mid-encode would tear the checkpoint.
	t.mu.RLock()
	defer t.mu.RUnlock()
	data := t.all.appendTo(nil)
	data = t.public.appendTo(data)
	data = binary.AppendUvarint(data, uint64(len(t.owners)))
	for user, b := range t.owners {
		data = wire.AppendString(data, user)
		data = b.appendTo(data)
	}
	return CheckpointVersion, data, nil
}

// Restore replaces the tracker's counters with a previously checkpointed
// state. An unknown version, a decode failure, or anything Checkpoint never
// writes (a key listed twice, a counter at or below zero) is returned as an
// error so the caller (the mutation bus) falls back to a full rebuild; the
// tracker is untouched then.
func (t *Tracker) Restore(version int, data []byte) error {
	if version != CheckpointVersion {
		return fmt.Errorf("stats: unknown checkpoint version %d", version)
	}
	r := wire.NewReader(data)
	all := readBucket(&r, t.capacity, false)
	public := readBucket(&r, t.capacity, false)
	owners := make(map[string]*bucket)
	for n := r.Count(6); n > 0 && r.Err() == nil; n-- { // owner, an empty bucket
		user := readKey(&r, owners, r.String)
		owners[user] = readBucket(&r, t.capacity, true)
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("stats: decoding checkpoint: %w", err)
	}
	t.mu.Lock()
	t.all, t.public, t.owners = all, public, owners
	t.mu.Unlock()
	return nil
}
