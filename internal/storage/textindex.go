package storage

import (
	"context"
	"fmt"
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
	// shapes is the shape dictionary, keyed by exact text: almost always one
	// shape per text.
	shapes dict[string, *QueryShape]
	// trigrams and byTable (keyed by lower-cased table name) hold shapes in
	// ascending number.
	trigrams map[trigram][]*QueryShape
	byTable  map[string][]*QueryShape
	// byUser holds the ascending IDs of each user's records: history.
	byUser map[string][]QueryID
	// annotated holds the ascending IDs of the records carrying at least one
	// annotation. Annotation text is per record, not per shape, so searches
	// verify these records one by one instead of through the dictionary.
	annotated []QueryID
	// samples is the output-sample dictionary (sample.go), keyed by content
	// hash.
	samples dict[uint64, *OutputSample]
}

// reset empties the index. Callers must hold mu (or own the store).
func (ix *index) reset() {
	ix.shapes = dict[string, *QueryShape]{noun: "shape", unknown: ErrUnknownShape}
	ix.shapes.reset(0)
	ix.trigrams = make(map[trigram][]*QueryShape)
	ix.byTable = make(map[string][]*QueryShape)
	ix.byUser = make(map[string][]QueryID)
	ix.annotated = nil
	ix.samples = dict[uint64, *OutputSample]{noun: "sample", unknown: ErrUnknownSample}
	ix.samples.reset(0)
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

// postShapeLocked posts a shape entering the dictionary under its trigrams
// and tables. Callers must hold mu.
func (ix *index) postShapeLocked(sh *QueryShape) {
	eachTrigram(func(tg trigram) { postShape(ix.trigrams, tg, sh) }, sh.text, sh.canonical)
	for _, t := range sh.tables {
		postShape(ix.byTable, t, sh)
	}
}

// internLocked points a record about to be published at the dictionaries'
// shape and sample for it, posts the record's ID on that shape and counts
// the record on that sample, and reports which of them the record entered.
// A record's sample may be nil. Callers must hold mu.
func (ix *index) internLocked(rec *QueryRecord) (e entries) {
	sh, entered := ix.shapes.intern(rec.QueryShape)
	if e.shape = entered; entered {
		ix.postShapeLocked(sh)
	} else if sh != rec.QueryShape {
		sh.derived = sh.derived || rec.derived
	}
	sh.ids = insertSorted(sh.ids, rec.ID)
	rec.QueryShape = sh
	if rec.Sample != nil {
		rec.Sample, e.sample = ix.samples.intern(rec.Sample)
		rec.Sample.refs++
	}
	return e
}

// releaseLocked drops a record leaving its shape from the shape's IDs, unless
// keepShape says its next version keeps the shape, and its count from its
// sample. Each leaves its dictionary with its last record, and a shape every
// posting then. Callers must hold mu.
func (ix *index) releaseLocked(rec *QueryRecord, keepShape bool) {
	if sh := rec.QueryShape; !keepShape {
		if sh.ids = removeElem(sh.ids, rec.ID); len(sh.ids) == 0 {
			ix.shapes.leave(sh)
			eachTrigram(func(tg trigram) { removeFromBucket(ix.trigrams, tg, sh) }, sh.text, sh.canonical)
			for _, t := range sh.tables {
				removeFromBucket(ix.byTable, t, sh)
			}
		}
	}
	if sm := rec.Sample; sm != nil {
		if sm.refs--; sm.refs == 0 {
			ix.samples.leave(sm)
		}
	}
}

// resolveLocked points the record of a put or replace-text read from the log
// at the live shape and sample its frame names (dict.resolve). On error the
// store is not changed. Callers must hold the commit lock.
func (ix *index) resolveLocked(m *Mutation) error {
	sm, err := ix.samples.resolve(m, m.sampleRef, m.Record.Sample)
	if err != nil {
		return err
	}
	m.Record.Sample, m.sampleRef = sm, 0
	if m.shapeRef == 0 && m.Record.QueryShape == nil {
		return fmt.Errorf("storage: apply %s: the record has no shape", m.Op)
	}
	sh, err := ix.shapes.resolve(m, m.shapeRef, m.Record.QueryShape)
	if err != nil {
		return err
	}
	m.Record.QueryShape, m.shapeRef = sh, 0
	return nil
}

// entries says which of its record's definitions — shape, sample — a
// mutation entered into the store's dictionaries: its frame defines those
// inline, where every later frame refers to them by number. It is decided
// when the record is interned, because a batch interns all its records before
// any of them is encoded.
type entries struct{ shape, sample bool }

// addLocked indexes a record about to be published, pointing it at its
// interned shape and sample, and reports which of them the record entered
// into their dictionaries. Callers must hold mu.
func (ix *index) addLocked(rec *QueryRecord) entries {
	e := ix.internLocked(rec)
	ix.postLocked(rec)
	return e
}

// removeLocked de-indexes a record being deleted. Callers must hold mu.
func (ix *index) removeLocked(rec *QueryRecord) {
	ix.releaseLocked(rec, false)
	ix.unpostLocked(rec)
}

// replaceLocked re-indexes a record put again over its own ID (a replay that
// overlaps its snapshot) and reports what the new version entered. Callers
// must hold mu.
func (ix *index) replaceLocked(old, rec *QueryRecord) entries {
	ix.unpostLocked(old)
	e := ix.moveLocked(old, rec)
	ix.postLocked(rec)
	return e
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

// moveLocked moves a record to the shape and sample of next, the version
// about to be published — either may be the one it has — and reports what
// next entered. Both are interned before the old ones are released, so a
// version that keeps the only record of a shape or sample keeps it, and its
// number. Callers must hold mu.
func (ix *index) moveLocked(old, next *QueryRecord) entries {
	e := ix.internLocked(next)
	ix.releaseLocked(old, next.QueryShape == old.QueryShape)
	return e
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
func streamsOf(shapes []*QueryShape) []postingStream {
	streams := make([]postingStream, len(shapes))
	for i, sh := range shapes {
		streams[i] = postingStream{ids: sh.ids, shape: sh}
	}
	return streams
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
	// order until Scan narrows them and merges them.
	streams   []postingStream
	annotated []QueryID
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
		all := make([]*QueryShape, 0, len(ix.shapes.byNum))
		for _, sh := range ix.shapes.byNum {
			all = append(all, sh)
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

// ScanAnnotated visits, in ascending ID order, the current version of every
// annotated record with ID <= high that is visible to the principal, and
// returns how many records it examined.
func (sel *TextSelection) ScanAnnotated(ctx context.Context, high QueryID, p Principal, fn func(*QueryRecord) bool) int {
	src := sel.store.bucket(sel.annotated, 0, high)
	return src.visit(ctx, p, fn)
}

// Scan visits, in ascending ID order, the records with after < ID <= high
// that are visible to the principal and are either a record of a selected
// shape that was not annotated when the selection was made, or one of extra —
// records the caller verified itself (the annotated ones), in ascending ID
// order, which are handed to fn as they are. Records are resolved at read
// time like every other scan: one deleted since the selection is skipped, and
// so is one whose text was replaced since, so every visited record still has
// the shape it was selected for. Return false from fn to stop early; the cost
// is O(selected shapes + records examined), whatever the size of the log. It
// returns how many records it examined, extra not included: the caller's
// scan examined those. Scan consumes the selection: it serves one call.
func (sel *TextSelection) Scan(ctx context.Context, after, high QueryID, extra []*QueryRecord, p Principal, fn func(*QueryRecord) bool) int {
	src := sel.store.merged(sel.streams, after, high)
	sel.streams = nil
	lo := sort.Search(len(extra), func(i int) bool { return extra[i].ID > after })
	hi := sort.Search(len(extra), func(i int) bool { return extra[i].ID > high })
	src.skip, src.verified = sel.annotated, extra[lo:hi]
	return src.visit(ctx, p, fn)
}

// postingStream is one shape's IDs inside the merge: mergeOf narrows ids to
// the merged range, and next is the index of the ID after the stream's head.
type postingStream struct {
	ids   []QueryID
	next  int
	shape *QueryShape
}

// postingHead is one heap entry: a stream's next ID and the stream's index.
// It holds no pointer, so sifting it costs no write barrier.
type postingHead struct {
	head   QueryID
	stream int32
}

// postingMerge yields the IDs of its streams in ascending order from a
// binary min-heap of their heads; the streams stay in their side array. An
// ID appears in at most one stream: a record has one shape.
type postingMerge struct {
	streams []postingStream
	heap    []postingHead
}

// mergeOf narrows whole, unordered streams to their IDs in after < ID <=
// high and merges them. It takes over the streams.
func mergeOf(streams []postingStream, after, high QueryID) postingMerge {
	heap := make([]postingHead, 0, len(streams))
	for i := range streams {
		st := &streams[i]
		if ids := narrow(st.ids, after, high); len(ids) > 0 {
			st.ids, st.next = ids, 1
			heap = append(heap, postingHead{head: ids[0], stream: int32(i)})
		}
	}
	m := postingMerge{streams: streams, heap: heap}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m
}

// narrow returns the IDs of an ascending list in after < ID <= high. A first
// page and a pin at the current high-water mark are the common case: one
// probe at each end settles them.
func narrow(ids []QueryID, after, high QueryID) []QueryID {
	if len(ids) > 0 && ids[0] <= after {
		ids = ids[sort.Search(len(ids), func(i int) bool { return ids[i] > after }):]
	}
	if n := len(ids); n > 0 && ids[n-1] > high {
		ids = ids[:sort.Search(n, func(i int) bool { return ids[i] > high })]
	}
	return ids
}

// more reports whether an ID is left to pop.
func (m *postingMerge) more() bool { return len(m.heap) > 0 }

// pop removes and returns the smallest ID with the shape it belongs to.
func (m *postingMerge) pop() (QueryID, *QueryShape) {
	top := &m.heap[0]
	st := &m.streams[top.stream]
	id := top.head
	if st.next < len(st.ids) {
		top.head = st.ids[st.next]
		st.next++
	} else {
		n := len(m.heap) - 1
		m.heap[0] = m.heap[n]
		m.heap = m.heap[:n]
	}
	m.down(0)
	return id, st.shape
}

func (m *postingMerge) down(i int) {
	h := m.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].head < h[c].head {
			c = r
		}
		if h[i].head <= h[c].head {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
