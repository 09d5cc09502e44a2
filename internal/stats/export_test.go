package stats

import (
	"fmt"

	"repro/internal/storage"
)

// The small-capacity tests force evictions with summaries far below
// topKCapacity.
var (
	NewWithCapacity    = newWithCapacity
	AttachWithCapacity = attachWithCapacity
)

// RebuildPerRecord is the oracle Rebuild is held to: every record applied to
// its buckets on its own, as the live path applies it, then the summaries
// reseeded from the final maps.
func (t *Tracker) RebuildPerRecord(store *storage.Store) {
	all, public := newBucket().reseed(t.capacity), newBucket().reseed(t.capacity)
	owners := make(map[string]*bucket)
	store.Snapshot().Scan(storage.Principal{Admin: true}, func(rec *storage.QueryRecord) bool {
		k := keysOf(rec.QueryShape)
		all.apply(rec, &k, 1)
		if rec.Visibility == storage.VisibilityPublic {
			public.apply(rec, &k, 1)
		} else {
			b := owners[rec.User]
			if b == nil {
				b = newBucket().reseed(t.capacity)
				owners[rec.User] = b
			}
			b.apply(rec, &k, 1)
		}
		return true
	})
	all.reseed(t.capacity)
	public.reseed(t.capacity)
	for _, b := range owners {
		b.reseed(t.capacity)
	}
	t.mu.Lock()
	t.all, t.public, t.owners = all, public, owners
	t.mu.Unlock()
}

// ExactCounts is a tracker's exact counter maps, every bucket's, without the
// top-K summaries derived from them.
type ExactCounts struct {
	All, Public Bucket
	Owners      map[string]Bucket
}

// Bucket is one bucket's exact counters.
type Bucket struct {
	Queries      int
	Users        map[string]int
	Fingerprints map[uint64]int
	Tables       map[string]Table
	Preds        map[string]int
}

// Table is one table aggregate's exact counters; an item's relation and a
// join's two sides follow its count after a slash.
type Table struct {
	Count int
	Names map[string]int
	Attrs map[string]string
	Preds map[string]string
	Joins map[string]string
}

// Counts returns the tracker's exact counters.
func Counts(t *Tracker) ExactCounts {
	t.mu.RLock()
	defer t.mu.RUnlock()
	items := func(m map[string]*itemCount) map[string]string {
		out := make(map[string]string, len(m))
		for k, ic := range m {
			out[k] = fmt.Sprintf("%d/%s", ic.count, ic.rel)
		}
		return out
	}
	strip := func(b *bucket) Bucket {
		out := Bucket{Queries: b.queries, Users: b.users.counts, Fingerprints: b.fingerprints.counts, Preds: b.preds.counts,
			Tables: make(map[string]Table, len(b.tables))}
		for key, ta := range b.tables {
			joins := make(map[string]string, len(ta.joins))
			for k, jc := range ta.joins {
				joins[k] = fmt.Sprintf("%d/%s/%s", jc.count, jc.left, jc.right)
			}
			out.Tables[key] = Table{Count: ta.count, Names: ta.names, Attrs: items(ta.attrs), Preds: items(ta.preds), Joins: joins}
		}
		return out
	}
	c := ExactCounts{All: strip(t.all), Public: strip(t.public), Owners: make(map[string]Bucket, len(t.owners))}
	for user, b := range t.owners {
		c.Owners[user] = strip(b)
	}
	return c
}
