package storage

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// The search index behind keyword and substring search. A query log repeats
// itself — the same statement is debugged once and re-run many times — so the
// index is two-level: a dictionary with one entry per distinct (lower-cased
// text, lower-cased canonical) pair holding the ascending IDs of the records
// with that text, and a map from every byte trigram of an entry's strings to
// the entries containing it. A search narrows the dictionary through the
// trigrams of its needles, verifies the surviving entries with the caller's
// predicate, and merges their postings; it never touches the text of a
// record. The index is derived state: nothing of it is checkpointed, and a
// restore rebuilds it through the same insert path live writes use.

// textKey identifies a dictionary entry: the lower-cased text and canonical
// form of a query.
type textKey struct{ text, canonical string }

// textEntry is one dictionary entry. The key and seq are immutable; ids is a
// copy-on-write bucket like the store's other index buckets (appended in
// place, rebuilt on removal) whose header is guarded by textIndex.mu. Every
// shape whose text and canonical form lower-case to the key points at it.
type textEntry struct {
	textKey
	// seq is the entry's creation rank. Trigram postings are kept in
	// ascending seq so that intersecting them is a merge.
	seq uint64
	ids []QueryID
}

// trigram is three consecutive bytes of a lower-cased string. Needles are
// matched bytewise (strings.Contains), so byte trigrams are exact for
// multi-byte UTF-8 too: every trigram of a needle is a trigram of any string
// containing the needle.
type trigram uint32

// textIndex holds the two dictionaries a record's text is stored in: the
// shape dictionary (shape.go), which keeps one shape per distinct text and
// features, and the search dictionary, one entry per distinct lower-cased
// (text, canonical) pair with its trigram map. Both hold exactly what the
// live records reference: a shape or entry goes with its last record.
type textIndex struct {
	mu sync.RWMutex
	// shapes holds, by exact text, the shapes of the stored records: almost
	// always one per text. nshapes counts them all.
	shapes   map[string][]*QueryShape
	nshapes  int
	entries  map[textKey]*textEntry
	trigrams map[trigram][]*textEntry // ascending seq, copy-on-write
	// annotated holds the ascending IDs of the records carrying at least one
	// annotation. Annotation text is per record, not per distinct text, so
	// searches verify these records one by one instead of through the
	// dictionary.
	annotated []QueryID
	nextSeq   uint64
}

// reset empties the index. Callers must hold mu (or own the store).
func (t *textIndex) reset() {
	t.shapes = make(map[string][]*QueryShape)
	t.nshapes = 0
	t.entries = make(map[textKey]*textEntry)
	t.trigrams = make(map[trigram][]*textEntry)
	t.annotated = nil
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

// entryLocked returns the dictionary's entry for a prepared shape's key,
// adding the shape's own (and its trigram postings) when there is none.
// Callers must hold mu.
func (t *textIndex) entryLocked(own *textEntry) *textEntry {
	if e := t.entries[own.textKey]; e != nil {
		return e
	}
	e := own
	e.seq = t.nextSeq
	t.nextSeq++
	t.entries[e.textKey] = e
	// The entry is the newest, so wherever it is already posted it is the
	// bucket's last element: a repeated trigram needs no other check.
	eachTrigram(func(tg trigram) {
		if b := t.trigrams[tg]; len(b) == 0 || b[len(b)-1] != e {
			t.trigrams[tg] = append(b, e)
		}
	}, e.text, e.canonical)
	return e
}

// linkLocked adds an interned record to its shape's entry. Callers must hold
// mu.
func (t *textIndex) linkLocked(rec *QueryRecord) {
	rec.entry.ids = insertSorted(rec.entry.ids, rec.ID)
}

// unlinkLocked removes the record from its entry, dropping the entry and its
// trigram postings when that was its last record. Callers must hold mu.
func (t *textIndex) unlinkLocked(rec *QueryRecord) {
	e := rec.entry
	if e.ids = removeElem(e.ids, rec.ID); len(e.ids) > 0 {
		return
	}
	delete(t.entries, e.textKey)
	eachTrigram(func(tg trigram) { removeFromBucket(t.trigrams, tg, e) }, e.text, e.canonical)
}

// addLocked indexes a record about to be published, pointing it at its
// interned shape. Callers must hold mu.
func (t *textIndex) addLocked(rec *QueryRecord) {
	t.internLocked(rec)
	t.linkLocked(rec)
	if len(rec.Annotations) > 0 {
		t.annotated = insertSorted(t.annotated, rec.ID)
	}
}

// removeLocked de-indexes a record being deleted. Callers must hold mu.
func (t *textIndex) removeLocked(rec *QueryRecord) {
	t.unlinkLocked(rec)
	t.releaseLocked(rec)
	if len(rec.Annotations) > 0 {
		t.annotated = removeElem(t.annotated, rec.ID)
	}
}

// retextLocked moves a record whose text was replaced (next is the version
// about to be published, with the new shape) to the interned shape and the
// entry of its new text. Callers must hold mu.
func (t *textIndex) retextLocked(old, next *QueryRecord) {
	t.internLocked(next)
	if next.entry != old.entry {
		t.unlinkLocked(old)
		t.linkLocked(next)
	}
	t.releaseLocked(old)
}

// annotate records that a query received its first annotation.
func (t *textIndex) annotate(id QueryID) {
	t.mu.Lock()
	t.annotated = insertSorted(t.annotated, id)
	t.mu.Unlock()
}

// SearchIndexSize reports the size of the search index: distinct texts in the
// dictionary and distinct trigrams mapped to them.
func (s *Store) SearchIndexSize() (texts, trigrams int) {
	s.text.mu.RLock()
	defer s.text.mu.RUnlock()
	return len(s.text.entries), len(s.text.trigrams)
}

// ---------------------------------------------------------------------------
// Reading: select dictionary entries, then merge their postings
// ---------------------------------------------------------------------------

// TextSelection is the search index's answer to one request: the dictionary
// entries whose strings satisfy the request, and the annotated records, which
// the caller verifies itself. Both were captured in one critical section.
// A selection is not safe for concurrent use.
type TextSelection struct {
	store *Store
	// streams holds one posting stream per selected entry, whole and in no
	// order until Scan narrows them and turns them into its merge heap.
	streams   postingHeap
	annotated []QueryID
	loaded    int
}

// SelectTexts returns the dictionary entries for which match(text, canonical)
// holds, both strings lower-cased. needles are lower-cased strings that
// match requires the entry's text or canonical to contain: their trigrams
// narrow the dictionary before match runs, and with no needle of three bytes
// or more, match runs over the whole dictionary — never over the log. match
// runs outside every store lock.
func (s *Store) SelectTexts(needles []string, match func(text, canonical string) bool) *TextSelection {
	t := &s.text
	tgs := distinctTrigrams(needles...)
	t.mu.RLock()
	cands := t.candidatesLocked(tgs)
	streams := make(postingHeap, len(cands))
	for i, e := range cands {
		streams[i] = postingStream{entry: e, rest: e.ids}
	}
	annotated := t.annotated
	t.mu.RUnlock()

	kept := streams[:0]
	for _, st := range streams {
		if match(st.entry.text, st.entry.canonical) {
			kept = append(kept, st)
		}
	}
	return &TextSelection{store: s, streams: kept, annotated: annotated}
}

// candidatesLocked returns the entries present in the postings of every given
// trigram, intersecting shortest postings first so the candidate set only
// shrinks; with no trigram to go by, every entry is a candidate. The result
// may alias a postings bucket and must not be written to. Callers must hold
// mu.
func (t *textIndex) candidatesLocked(tgs []trigram) []*textEntry {
	if len(tgs) == 0 {
		all := make([]*textEntry, 0, len(t.entries))
		for _, e := range t.entries {
			all = append(all, e)
		}
		return all
	}
	lists := make([][]*textEntry, len(tgs))
	for i, tg := range tgs {
		if lists[i] = t.trigrams[tg]; len(lists[i]) == 0 {
			return nil
		}
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	cands := lists[0]
	for i, list := range lists[1:] {
		dst := cands[:0]
		if i == 0 {
			dst = make([]*textEntry, 0, len(cands)) // lists[0] is a shared bucket
		}
		if cands = intersectInto(dst, cands, list); len(cands) == 0 {
			return nil
		}
	}
	return cands
}

// intersectInto appends to dst the entries of a that are also in b; both are
// in ascending seq. It gallops through b, so the cost follows the shorter
// list: O(len(a) * log(len(b)/len(a))).
func intersectInto(dst, a, b []*textEntry) []*textEntry {
	for _, e := range a {
		hi := 1
		for hi < len(b) && b[hi].seq < e.seq {
			hi *= 2
		}
		lo := hi / 2
		if hi > len(b) {
			hi = len(b)
		}
		b = b[lo+sort.Search(hi-lo, func(i int) bool { return b[lo+i].seq >= e.seq }):]
		if len(b) == 0 {
			break
		}
		if b[0] == e {
			dst = append(dst, e)
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
// entry that was not annotated when the selection was made, or one of extra —
// records the caller resolved itself (the annotated ones it verified), in
// ascending ID order. Records are resolved at read time like every other
// scan: one deleted since the selection is skipped, and so is one whose text
// was replaced since, so every visited record still has the text its entry
// was selected for. Return false from fn to stop early; the cost is
// O(selected entries + records visited), whatever the size of the log. Scan
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
		id, entry := h.pop()
		if !extraBelow(id) {
			return
		}
		if _, annotated := slices.BinarySearch(sel.annotated, id); annotated {
			continue // the caller's to verify
		}
		rec, ok := sel.store.loadRecord(id)
		sel.loaded++
		if !ok || rec.entry != entry || !rec.VisibleTo(p) {
			continue
		}
		if !fn(rec) {
			return
		}
	}
	extraBelow(math.MaxInt64)
}

// postingStream is one entry's postings inside the merge: the next ID inline,
// so heap comparisons stay inside the heap's own memory, and the rest.
type postingStream struct {
	head  QueryID
	rest  []QueryID
	entry *textEntry
}

// postingHeap is a binary min-heap of posting streams keyed by head. An ID
// appears in at most one stream: a record has one text.
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
			kept = append(kept, postingStream{head: ids[0], rest: ids[1:], entry: st.entry})
		}
	}
	*h = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		kept.down(i)
	}
}

// pop removes and returns the smallest ID with the entry it belongs to.
func (h *postingHeap) pop() (QueryID, *textEntry) {
	top := &(*h)[0]
	id, entry := top.head, top.entry
	if len(top.rest) > 0 {
		top.head, top.rest = top.rest[0], top.rest[1:]
	} else {
		n := len(*h) - 1
		(*h)[0] = (*h)[n]
		*h = (*h)[:n]
	}
	h.down(0)
	return id, entry
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
