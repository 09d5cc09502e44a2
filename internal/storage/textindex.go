package storage

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// The store's secondary indexes post shapes, not records. A query log repeats
// itself — the same statement is debugged once and re-run many times — so
// each distinct shape (shape.go) holds the ascending IDs of its records, and
// the indexes behind keyword and substring search and the by-table scans map
// a key to the shapes that have it: every byte trigram of a shape's
// lower-cased text and canonical form, and every table it references. Those
// postings change only when a shape enters the dictionary with its first
// record or leaves it with its last, so a put or delete of a repeated query
// touches one shape's IDs and the user's bucket. A search narrows the shapes
// through the trigrams of its needles, verifies the survivors with the
// caller's predicate, and merges their IDs; it never touches the text of a
// record. The index is derived state: nothing of it is checkpointed, and a
// restore rebuilds it through the same insert path live writes use.

// trigram is three consecutive bytes of a lower-cased string. Needles are
// matched bytewise (strings.Contains), so byte trigrams are exact for
// multi-byte UTF-8 too: every trigram of a needle is a trigram of any string
// containing the needle.
type trigram uint32

// index holds every secondary index of the store under one lock: the shape
// dictionary, the shape postings by trigram and by table, and the record
// postings by user and of the annotated records. It holds exactly what the
// live records reference: a shape goes with its last record, a key with its
// last posting. Every slice reachable from it is copy-on-write: writers
// append in place (readers only look at elements below their captured
// length) and build a fresh slice on removal, so a reader may capture a
// slice header under RLock and keep iterating it after releasing the lock.
type index struct {
	mu sync.RWMutex
	// shapes holds, by exact text, the shapes of the stored records: almost
	// always one per text. nshapes counts them all.
	shapes  map[string][]*QueryShape
	nshapes int
	// byNum holds the same shapes by number (QueryShape.seq), the key the
	// log and snapshots refer to a shape by. nextSeq is the number the next
	// new shape takes: one more than the highest number ever entered, so a
	// number is never reused while a log can still refer to it.
	byNum   map[uint64]*QueryShape
	nextSeq uint64
	// trigrams and byTable (keyed by lower-cased table name) hold shapes in
	// ascending seq.
	trigrams map[trigram][]*QueryShape
	byTable  map[string][]*QueryShape
	// byUser holds the ascending IDs of each user's records: history.
	byUser map[string][]QueryID
	// annotated holds the ascending IDs of the records carrying at least one
	// annotation. Annotation text is per record, not per shape, so searches
	// verify these records one by one instead of through the dictionary.
	annotated []QueryID
}

// reset empties the index. Callers must hold mu (or own the store).
func (ix *index) reset() {
	ix.shapes = make(map[string][]*QueryShape)
	ix.nshapes = 0
	ix.byNum = make(map[uint64]*QueryShape)
	ix.nextSeq = 1
	ix.trigrams = make(map[trigram][]*QueryShape)
	ix.byTable = make(map[string][]*QueryShape)
	ix.byUser = make(map[string][]QueryID)
	ix.annotated = nil
}

// eachTrigram calls fn for every byte trigram of the strings, repeats
// included; strings shorter than three bytes contribute none.
func eachTrigram(fn func(trigram), strs ...string) {
	for _, s := range strs {
		for i := 0; i+3 <= len(s); i++ {
			fn(trigram(s[i])<<16 | trigram(s[i+1])<<8 | trigram(s[i+2]))
		}
	}
}

// distinctTrigrams returns the sorted distinct byte trigrams of the strings.
func distinctTrigrams(strs ...string) []trigram {
	var out []trigram
	eachTrigram(func(tg trigram) { out = append(out, tg) }, strs...)
	slices.Sort(out)
	return slices.Compact(out)
}

// postShape adds a shape entering the dictionary to a bucket, keeping it in
// ascending seq. A shape almost always enters with the highest number, so
// wherever it is already posted it is the bucket's last element and the
// append needs no other check; one replayed out of order (a log that
// overlaps its snapshot) is inserted into a fresh copy of the bucket.
func postShape[K comparable](m map[K][]*QueryShape, key K, sh *QueryShape) {
	b := m[key]
	switch n := len(b); {
	case n > 0 && b[n-1] == sh:
	case n == 0 || b[n-1].seq < sh.seq:
		m[key] = append(b, sh)
	default:
		i := sort.Search(n, func(i int) bool { return b[i].seq >= sh.seq })
		if b[i] != sh {
			m[key] = slices.Insert(slices.Clip(b), i, sh)
		}
	}
}

// enterLocked adds a prepared shape to the dictionary under number num and
// posts it under its trigrams and tables. Callers must hold mu.
func (ix *index) enterLocked(sh *QueryShape, num uint64) {
	sh.seq, sh.interned = num, true
	ix.byNum[num] = sh
	ix.nextSeq = max(ix.nextSeq, num+1)
	ix.shapes[sh.Text] = append(ix.shapes[sh.Text], sh)
	ix.nshapes++
	eachTrigram(func(tg trigram) { postShape(ix.trigrams, tg, sh) }, sh.text, sh.canonical)
	for _, t := range sh.tables {
		postShape(ix.byTable, t, sh)
	}
}

// leaveLocked drops a shape that lost its last record from the dictionary
// and from every posting. Callers must hold mu.
func (ix *index) leaveLocked(sh *QueryShape) {
	removeFromBucket(ix.shapes, sh.Text, sh)
	delete(ix.byNum, sh.seq)
	ix.nshapes--
	eachTrigram(func(tg trigram) { removeFromBucket(ix.trigrams, tg, sh) }, sh.text, sh.canonical)
	for _, t := range sh.tables {
		removeFromBucket(ix.byTable, t, sh)
	}
}

// addLocked indexes a record about to be published, pointing it at its
// interned shape, and reports whether the record entered that shape into the
// dictionary. Callers must hold mu.
func (ix *index) addLocked(rec *QueryRecord) (entered bool) {
	entered = ix.internLocked(rec)
	ix.postLocked(rec)
	return entered
}

// removeLocked de-indexes a record being deleted. Callers must hold mu.
func (ix *index) removeLocked(rec *QueryRecord) {
	ix.releaseLocked(rec)
	ix.unpostLocked(rec)
}

// replaceLocked re-indexes a record put again over its own ID (a replay that
// overlaps its snapshot) and reports whether the new version entered its
// shape into the dictionary. The new version is interned before the old one
// leaves its shape, so a put replayed over the only record of its shape keeps
// that shape, and its number. Callers must hold mu.
func (ix *index) replaceLocked(old, rec *QueryRecord) (entered bool) {
	ix.unpostLocked(old)
	entered = ix.retextLocked(old, rec)
	ix.postLocked(rec)
	return entered
}

// postLocked posts a record's ID by user and, if it carries annotations,
// among the annotated. Callers must hold mu.
func (ix *index) postLocked(rec *QueryRecord) {
	ix.byUser[rec.User] = insertSorted(ix.byUser[rec.User], rec.ID)
	if len(rec.Annotations) > 0 {
		ix.annotated = insertSorted(ix.annotated, rec.ID)
	}
}

// unpostLocked undoes postLocked. Callers must hold mu.
func (ix *index) unpostLocked(rec *QueryRecord) {
	removeFromBucket(ix.byUser, rec.User, rec.ID)
	if len(rec.Annotations) > 0 {
		ix.annotated = removeElem(ix.annotated, rec.ID)
	}
}

// retextLocked moves a record whose text was replaced (next is the version
// about to be published, with the new shape) to the interned shape of its new
// text, which may be the one it has, and reports whether next entered its
// shape into the dictionary. Callers must hold mu.
func (ix *index) retextLocked(old, next *QueryRecord) (entered bool) {
	entered = ix.internLocked(next)
	if next.QueryShape != old.QueryShape {
		ix.releaseLocked(old)
	}
	return entered
}

// annotate records that a query received its first annotation.
func (ix *index) annotate(id QueryID) {
	ix.mu.Lock()
	ix.annotated = insertSorted(ix.annotated, id)
	ix.mu.Unlock()
}

// SearchIndexSize reports how many distinct trigrams the search index maps to
// shapes (ShapeCount is how many shapes there are).
func (s *Store) SearchIndexSize() (trigrams int) {
	s.index.mu.RLock()
	defer s.index.mu.RUnlock()
	return len(s.index.trigrams)
}

// streamsOf returns one whole posting stream per shape. Callers must hold
// index.mu.
func streamsOf(shapes []*QueryShape) postingHeap {
	h := make(postingHeap, len(shapes))
	for i, sh := range shapes {
		h[i] = postingStream{rest: sh.ids, shape: sh}
	}
	return h
}

// ---------------------------------------------------------------------------
// Reading: select shapes, then merge their IDs
// ---------------------------------------------------------------------------

// TextSelection is the search index's answer to one request: the shapes
// whose strings satisfy the request, and the annotated records, which the
// caller verifies itself. Both were captured in one critical section.
// A selection is not safe for concurrent use.
type TextSelection struct {
	store *Store
	// streams holds one posting stream per selected shape, whole and in no
	// order until Scan narrows them and turns them into its merge heap.
	streams   postingHeap
	annotated []QueryID
	loaded    int
}

// SelectTexts returns the shapes for which match(text, canonical) holds,
// both strings lower-cased. needles are lower-cased strings that match
// requires the shape's text or canonical to contain: their trigrams narrow
// the dictionary before match runs, and with no needle of three bytes or
// more, match runs over the whole dictionary — never over the log. match runs
// outside every store lock.
func (s *Store) SelectTexts(needles []string, match func(text, canonical string) bool) *TextSelection {
	ix := &s.index
	tgs := distinctTrigrams(needles...)
	ix.mu.RLock()
	streams := streamsOf(ix.candidatesLocked(tgs))
	annotated := ix.annotated
	ix.mu.RUnlock()

	kept := streams[:0]
	for _, st := range streams {
		if match(st.shape.text, st.shape.canonical) {
			kept = append(kept, st)
		}
	}
	return &TextSelection{store: s, streams: kept, annotated: annotated}
}

// candidatesLocked returns the shapes present in the postings of every given
// trigram, intersecting shortest postings first so the candidate set only
// shrinks; with no trigram to go by, every shape is a candidate. The result
// may alias a postings bucket and must not be written to. Callers must hold
// mu.
func (ix *index) candidatesLocked(tgs []trigram) []*QueryShape {
	if len(tgs) == 0 {
		all := make([]*QueryShape, 0, ix.nshapes)
		for _, list := range ix.shapes {
			all = append(all, list...)
		}
		return all
	}
	lists := make([][]*QueryShape, len(tgs))
	for i, tg := range tgs {
		if lists[i] = ix.trigrams[tg]; len(lists[i]) == 0 {
			return nil
		}
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	cands := lists[0]
	for i, list := range lists[1:] {
		dst := cands[:0]
		if i == 0 {
			dst = make([]*QueryShape, 0, len(cands)) // lists[0] is a shared bucket
		}
		if cands = intersectInto(dst, cands, list); len(cands) == 0 {
			return nil
		}
	}
	return cands
}

// intersectInto appends to dst the shapes of a that are also in b; both are
// in ascending seq. It gallops through b, so the cost follows the shorter
// list: O(len(a) * log(len(b)/len(a))).
func intersectInto(dst, a, b []*QueryShape) []*QueryShape {
	for _, sh := range a {
		hi := 1
		for hi < len(b) && b[hi].seq < sh.seq {
			hi *= 2
		}
		lo := hi / 2
		if hi > len(b) {
			hi = len(b)
		}
		b = b[lo+sort.Search(hi-lo, func(i int) bool { return b[lo+i].seq >= sh.seq }):]
		if len(b) == 0 {
			break
		}
		if b[0] == sh {
			dst = append(dst, sh)
		}
	}
	return dst
}

// Loaded returns how many records the selection's scans have loaded so far.
func (sel *TextSelection) Loaded() int { return sel.loaded }

// ScanAnnotated visits, in ascending ID order, the current version of every
// annotated record with ID <= high that is visible to the principal.
func (sel *TextSelection) ScanAnnotated(high QueryID, p Principal, fn func(*QueryRecord) bool) {
	for _, id := range sel.annotated {
		if id > high {
			return
		}
		rec, ok := sel.store.loadRecord(id)
		sel.loaded++
		if !ok || !rec.VisibleTo(p) {
			continue
		}
		if !fn(rec) {
			return
		}
	}
}

// Scan visits, in ascending ID order, the records with after < ID <= high
// that are visible to the principal and are either a record of a selected
// shape that was not annotated when the selection was made, or one of extra —
// records the caller resolved itself (the annotated ones it verified), in
// ascending ID order. Records are resolved at read time like every other
// scan: one deleted since the selection is skipped, and so is one whose text
// was replaced since, so every visited record still has the shape it was
// selected for. Return false from fn to stop early; the cost is
// O(selected shapes + records visited), whatever the size of the log. Scan
// consumes the selection: it serves one call.
func (sel *TextSelection) Scan(after, high QueryID, extra []*QueryRecord, p Principal, fn func(*QueryRecord) bool) {
	// extraBelow visits the extra records below bound; false means stop.
	extraBelow := func(bound QueryID) bool {
		for len(extra) > 0 && extra[0].ID < bound {
			rec := extra[0]
			extra = extra[1:]
			if rec.ID > after && rec.ID <= high && !fn(rec) {
				return false
			}
		}
		return true
	}
	h := sel.streams
	sel.streams = nil
	h.init(after, high)
	for len(h) > 0 {
		id, sh := h.pop()
		if !extraBelow(id) {
			return
		}
		if _, annotated := slices.BinarySearch(sel.annotated, id); annotated {
			continue // the caller's to verify
		}
		rec, ok := sel.store.loadRecord(id)
		sel.loaded++
		if !ok || rec.QueryShape != sh || !rec.VisibleTo(p) {
			continue
		}
		if !fn(rec) {
			return
		}
	}
	extraBelow(math.MaxInt64)
}

// postingStream is one shape's IDs inside the merge: the next ID inline, so
// heap comparisons stay inside the heap's own memory, and the rest.
type postingStream struct {
	head  QueryID
	rest  []QueryID
	shape *QueryShape
}

// postingHeap is a binary min-heap of posting streams keyed by head. An ID
// appears in at most one stream: a record has one shape.
type postingHeap []postingStream

// init turns whole, unordered streams (everything in rest) into the heap over
// their IDs in after < ID <= high.
func (h *postingHeap) init(after, high QueryID) {
	kept := (*h)[:0]
	for _, st := range *h {
		ids := st.rest
		// A first page and a pin at the current high-water mark are the
		// common case: one probe at each end settles them.
		if ids[0] <= after {
			ids = ids[sort.Search(len(ids), func(i int) bool { return ids[i] > after }):]
		}
		if n := len(ids); n > 0 && ids[n-1] > high {
			ids = ids[:sort.Search(n, func(i int) bool { return ids[i] > high })]
		}
		if len(ids) > 0 {
			kept = append(kept, postingStream{head: ids[0], rest: ids[1:], shape: st.shape})
		}
	}
	*h = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		kept.down(i)
	}
}

// pop removes and returns the smallest ID with the shape it belongs to.
func (h *postingHeap) pop() (QueryID, *QueryShape) {
	top := &(*h)[0]
	id, sh := top.head, top.shape
	if len(top.rest) > 0 {
		top.head, top.rest = top.rest[0], top.rest[1:]
	} else {
		n := len(*h) - 1
		(*h)[0] = (*h)[n]
		*h = (*h)[:n]
	}
	h.down(0)
	return id, sh
}

func (h postingHeap) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].head < h[m].head {
			m = r
		}
		if h[i].head <= h[m].head {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
