// Bounded heavy-hitter summaries for the stats tracker's hot reads.
//
// A bucket's listed dimension (tables, users, global predicates,
// fingerprints) keeps a topkSummary next to its exact counter map once that
// map has held more than capacity keys; until then the map itself is the
// listing, complete, with bound 0, and the bucket pays for no summary. Most
// buckets — one per user with non-public queries — never get one. The
// summary is a Space-Saving-style structure (Metwally et al., "Efficient
// Computation of Frequent and Top-k Elements in Data Streams") adapted to
// this tracker's situation: the exact per-key counts already exist in the
// bucket's maps, so the summary never needs to *estimate* a count — it only
// has to decide *membership*, i.e. which ≤ capacity keys are worth keeping
// sorted-read-ready. That makes its guarantee strictly stronger than classic
// Space-Saving:
//
//   - every count the summary reports is exact (mirrored from the maps), and
//   - every key it does NOT track has true count ≤ missedBound, a watermark
//     maintained exactly: whenever a key is evicted or refused admission, the
//     watermark rises to that key's count at that moment. Increments re-offer
//     the key, so a key can only stay untracked while it stays under the
//     current minimum; decrements only lower untracked counts further.
//
// Reads therefore cost O(capacity log capacity) — independent of how many
// users/predicates/templates the log has accumulated — and come with a
// per-read error bound: "any omitted item's true count is ≤ bound". The
// tracker's /v1/stats surface reports that bound so callers can tell a
// complete listing (bound 0, nothing was ever evicted) from a truncated one.
//
// Updates are O(log capacity) sift operations on a positional min-heap and
// run under the store's commit lock, matching the bus-callback budget.
//
// Keys are ranked in one total order — higher count first, then the smaller
// key — so admission, eviction and seeding never break a tie by heap layout
// or map iteration order: two summaries that saw the same counts through the
// same updates track the same keys, whatever order they were seeded in.
package stats

import "cmp"

// topKCapacity is how many keys each summary tracks per bucket per
// dimension. It must comfortably exceed the API's listing caps (the server
// returns 20) so merged listings stay exact until a dimension's cardinality
// truly explodes, yet stay small enough that a read's merge-and-sort cost is
// trivially flat. A summary of 256 keys is a few KB, paid only by a
// dimension that has held more than 256 keys.
const topKCapacity = 256

// topkEntry is one tracked (key, exact count) pair.
type topkEntry[K cmp.Ordered] struct {
	key   K
	count int
}

// below reports whether e ranks below o: a lower count, or an equal count and
// a greater key. The heap's root is the entry every other entry ranks above.
func (e topkEntry[K]) below(o topkEntry[K]) bool {
	return e.count < o.count || e.count == o.count && e.key > o.key
}

// byRank orders entries highest rank first — the order below defines, and
// the order every listing is sorted in.
func byRank[K cmp.Ordered](a, b topkEntry[K]) int {
	if c := cmp.Compare(b.count, a.count); c != 0 {
		return c
	}
	return cmp.Compare(a.key, b.key)
}

// topkSummary tracks the (approximately) top-capacity keys of one dimension
// by exact count. The zero value is not usable; use seedTopK.
type topkSummary[K cmp.Ordered] struct {
	capacity int
	heap     []topkEntry[K] // positional min-heap by rank (below)
	pos      map[K]int      // key -> heap index
	// missedBound is the exact high-water mark of counts at which keys were
	// evicted from or refused admission to the summary: every untracked
	// key's true count is ≤ missedBound. It only rises during incremental
	// maintenance and resets when the summary is reseeded from the full map
	// (Rebuild), where it becomes the count of the largest key that did not
	// fit.
	missedBound int
}

// update re-synchronises one key with its new exact count after a mutation.
// count ≤ 0 removes the key; an untracked key is admitted if there is room or
// it ranks above the current minimum (Space-Saving's eviction rule),
// otherwise the miss watermark absorbs it.
func (t *topkSummary[K]) update(key K, count int) {
	i, tracked := t.pos[key]
	if count <= 0 {
		if tracked {
			t.removeAt(i)
		}
		return
	}
	if tracked {
		old := t.heap[i].count
		t.heap[i].count = count
		// Min-heap: a shrunken count may now rank below its parent (sift
		// up), a grown one above its children (sift down).
		if count < old {
			t.siftUp(i)
		} else {
			t.siftDown(i)
		}
		return
	}
	if len(t.heap) < t.capacity {
		t.heap = append(t.heap, topkEntry[K]{key: key, count: count})
		t.pos[key] = len(t.heap) - 1
		t.siftUp(len(t.heap) - 1)
		return
	}
	entry := topkEntry[K]{key: key, count: count}
	if t.heap[0].below(entry) {
		// Evict the minimum: its count becomes part of the miss watermark.
		if t.heap[0].count > t.missedBound {
			t.missedBound = t.heap[0].count
		}
		delete(t.pos, t.heap[0].key)
		t.heap[0] = entry
		t.pos[key] = 0
		t.siftDown(0)
		return
	}
	// Refused admission: the key stays untracked, ranked below the current
	// minimum; remember the largest count ever refused.
	if count > t.missedBound {
		t.missedBound = count
	}
}

// removeAt deletes the entry at heap index i.
func (t *topkSummary[K]) removeAt(i int) {
	delete(t.pos, t.heap[i].key)
	last := len(t.heap) - 1
	if i != last {
		t.heap[i] = t.heap[last]
		t.pos[t.heap[i].key] = i
	}
	t.heap = t.heap[:last]
	if i < len(t.heap) {
		t.siftDown(i)
		t.siftUp(i)
	}
}

func (t *topkSummary[K]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.heap[i].below(t.heap[parent]) {
			return
		}
		t.swap(parent, i)
		i = parent
	}
}

func (t *topkSummary[K]) siftDown(i int) {
	n := len(t.heap)
	for {
		smallest := i
		if l := 2*i + 1; l < n && t.heap[l].below(t.heap[smallest]) {
			smallest = l
		}
		if r := 2*i + 2; r < n && t.heap[r].below(t.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		t.swap(i, smallest)
		i = smallest
	}
}

func (t *topkSummary[K]) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.pos[t.heap[i].key] = i
	t.pos[t.heap[j].key] = j
}

// contains reports whether the summary currently tracks key.
func (t *topkSummary[K]) contains(key K) bool {
	_, ok := t.pos[key]
	return ok
}

// len returns how many keys the summary currently tracks.
func (t *topkSummary[K]) len() int { return len(t.heap) }

// seedTopK builds a summary from a full exact counter map: the top-capacity
// keys are tracked and the watermark becomes the largest count that did not
// fit — the tightest bound any summary over that map can offer. Offering each
// key once at its final count is a heap selection: a key is refused or
// evicted only for capacity keys ranked above it, so the summary ends holding
// exactly the top capacity, and the watermark, the highest count refused or
// evicted, is the count of the first key ranked below them. A dimension is
// seeded when its map first outgrows capacity, and again by Rebuild.
func seedTopK[K cmp.Ordered, V counted](capacity int, counts map[K]V) *topkSummary[K] {
	// The seeded size is known: size the heap and the index for it.
	n := min(len(counts), capacity)
	t := &topkSummary[K]{capacity: capacity, heap: make([]topkEntry[K], 0, n), pos: make(map[K]int, n)}
	for k, v := range counts {
		t.update(k, v.value())
	}
	return t
}
