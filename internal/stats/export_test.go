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

// RebuildPerRecord is the oracle Rebuild and the owner buckets' shape lists
// are held to: every record applied to its buckets' counters on its own, an
// owner bucket built from its first record on, then the summaries reseeded
// from the final maps.
func (t *Tracker) RebuildPerRecord(store *storage.Store) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.all, t.public, t.owners = newBucket(), newBucket(), make(map[string]*bucket)
	t.shapes = make(map[*storage.QueryShape]*countedShape)
	store.Snapshot().Scan(storage.Principal{Admin: true}, func(rec *storage.QueryRecord) bool {
		t.specificFor(rec).settle(rec.User, t.capacity)
		t.addLocked(rec)
		return true
	})
	t.all.reseed(t.capacity)
	t.public.reseed(t.capacity)
	for _, b := range t.owners {
		b.reseed(t.capacity)
	}
}

// ExactCounts is a tracker's exact counter maps, every bucket's, without the
// top-K summaries derived from them, and the record count of every shape in
// its key cache.
type ExactCounts struct {
	All, Public Bucket
	Owners      map[string]Bucket
	Shapes      map[*storage.QueryShape]int
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

// Counts returns the tracker's exact counters, settling every owner bucket
// first.
func Counts(t *Tracker) ExactCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	for user, b := range t.owners {
		b.settle(user, t.capacity)
	}
	items := func(m map[string]itemCount) map[string]string {
		out := make(map[string]string, len(m))
		for k, ic := range m {
			out[k] = fmt.Sprintf("%d/%s", ic.count, ic.rel)
		}
		return out
	}
	strip := func(b *bucket) Bucket {
		out := Bucket{Queries: b.queries, Users: ints(b.users.counts), Fingerprints: ints(b.fingerprints.counts),
			Preds: ints(b.preds.counts), Tables: make(map[string]Table, len(b.tables.counts))}
		for key, ta := range b.tables.counts {
			joins := make(map[string]string, len(ta.joins))
			for k, jc := range ta.joins {
				joins[k] = fmt.Sprintf("%d/%s/%s", jc.count, jc.left, jc.right)
			}
			out.Tables[key] = Table{Count: ta.count, Names: ta.names, Attrs: items(ta.attrs), Preds: items(ta.preds), Joins: joins}
		}
		return out
	}
	c := ExactCounts{All: strip(t.all), Public: strip(t.public), Owners: make(map[string]Bucket, len(t.owners)),
		Shapes: make(map[*storage.QueryShape]int, len(t.shapes))}
	for user, b := range t.owners {
		c.Owners[user] = strip(b)
	}
	for sh, e := range t.shapes {
		c.Shapes[sh] = e.records
	}
	return c
}

// ints copies a dimension's tallies as plain counts.
func ints[K comparable](m map[K]tally) map[K]int {
	out := make(map[K]int, len(m))
	for k, n := range m {
		out[k] = int(n)
	}
	return out
}

// BuiltOwners counts the owner buckets whose counters are built and the ones
// that are still a shape list.
func BuiltOwners(t *Tracker) (built, listed int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, b := range t.owners {
		if b.built() {
			built++
		} else {
			listed++
		}
	}
	return built, listed
}

// ListedShapes is the bound on an unbuilt owner bucket's shape list.
const ListedShapes = maxListedShapes
