package session

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Live is the bus-driven incremental session detector: it maintains session
// windows from the storage mutation event bus, so session and graph reads
// are served from always-current state instead of re-segmenting the full
// query log on every mining pass.
//
// The segmentation rule reads adjacent pairs only (boundary), so
// every mutation is a local edit: the record's place in its user's stream is
// found by binary search on (IssuedAt, ID) and only the boundary in front of
// it and the one behind it are re-evaluated — at most two boundary
// evaluations per mutation, whatever the stream's length and wherever the
// record lands. The write side computes no edge label: Figure 2's diffs are
// computed when a graph is read (Get, Export), outside the detector's lock
// and the store's commit lock.
//
// A session's ID is the lowest query ID it holds, as a Git object is named
// from its content: a function of the records alone, so a follower, a WAL
// replay, a snapshot restore and a rebuild agree with the primary on every ID
// with nothing to carry between them. A newly logged query carries the
// highest ID yet, so logging never renames a session, wherever the query
// lands: a split names the part without the old lowest query by its own
// lowest, and a merge keeps the lower of the two IDs. Only removing a
// session's lowest query renames it, to the next lowest. The detector is the
// one home of session membership: the store keeps no copy, and every reader
// of a record's session asks SessionOf.
//
// It is safe for concurrent use: mutations arrive serialised under the
// store's commit lock, reads come from request-serving goroutines.
type Live struct {
	store *storage.Store

	mu sync.RWMutex
	// users holds each user's windows in chronological order; byID holds
	// every window in ascending ID order. A record is found from its own
	// (User, IssuedAt, ID), so there is no per-record index.
	users map[string][]*window
	byID  []*window

	// cuts counts boundary evaluations made by local edits; edits counts the
	// edits by kind (nil children when uninstrumented). Guarded by mu like
	// the state they describe. labels counts edge labels computed; it is
	// bumped outside mu, hence atomic.
	cuts   uint64
	edits  [len(editKinds)]*telemetry.Counter
	labels atomic.Pointer[telemetry.Counter]
}

// The kinds of cqms_sessions_edits_total: the four mutations that edit a
// user's stream, and the two structural outcomes an edit can have.
const (
	editAppend = iota // put at the chronological tail of its user's stream
	editInsert        // put anywhere else
	editDelete
	editRetext // text repair, or a replayed put over an existing ID
	editSplit  // a window was cut in two
	editMerge  // two windows were joined; the higher ID was dropped
)

var editKinds = [...]string{"append", "insert", "delete", "retext", "split", "merge"}

// window is one live session.
type window struct {
	id   int64 // the lowest query ID in queries
	user string
	// queries is chronological and never empty while the window is tracked.
	// Two windows never share a writable element: a split hands the later
	// part the tail of the backing array and caps the earlier part.
	queries []*storage.QueryRecord

	// Listing state, maintained on every edit so Summaries reads the window
	// and nothing behind it: the IssuedAt of the first and last query, how
	// many queries reference each table, how many are group-visible per
	// group, and how many nobody but the owner may see (private, or
	// group-visible with no group).
	start, end time.Time
	tables     tally
	groups     tally
	hidden     int
}

func newWindow(user string, queries []*storage.QueryRecord) *window {
	w := &window{id: lowestID(queries), user: user, queries: queries}
	for _, q := range queries {
		w.count(q, 1)
	}
	w.retime()
	return w
}

// retime refreshes start and end after the queries changed.
func (w *window) retime() {
	if len(w.queries) > 0 {
		w.start, w.end = w.head().IssuedAt, w.tail().IssuedAt
	}
}

func (w *window) head() *storage.QueryRecord { return w.queries[0] }
func (w *window) tail() *storage.QueryRecord { return w.queries[len(w.queries)-1] }

// insert places q as the window's query i (i == len: at the end).
func (w *window) insert(i int, q *storage.QueryRecord) {
	w.queries = slices.Insert(w.queries, i, q)
	w.count(q, 1)
	w.retime()
}

// remove drops the window's query i.
func (w *window) remove(i int) {
	w.count(w.queries[i], -1)
	w.queries = slices.Delete(w.queries, i, i+1)
	w.retime()
}

// replace swaps another version of the same record in as query i.
func (w *window) replace(i int, q *storage.QueryRecord) {
	w.count(w.queries[i], -1)
	w.queries[i] = q
	w.count(q, 1)
}

// count adds (delta 1) or withdraws (delta -1) one query's share of the
// listing state.
func (w *window) count(q *storage.QueryRecord, delta int) {
	for _, t := range q.Tables {
		w.tables.add(t, delta)
	}
	switch {
	case q.Visibility == storage.VisibilityPublic:
	case q.Visibility == storage.VisibilityGroup && q.Group != "":
		w.groups.add(q.Group, delta)
	default:
		w.hidden += delta
	}
}

// visibleTo reports whether every query of the window is visible to the
// principal (QueryRecord.VisibleTo over all of them, from the counts).
func (w *window) visibleTo(p storage.Principal) bool {
	if p.Admin || p.User == w.user {
		return true
	}
	if w.hidden > 0 {
		return false
	}
	for _, g := range w.groups {
		if !p.MemberOf(g.name) {
			return false
		}
	}
	return true
}

func (w *window) summary() Summary {
	names := make([]string, len(w.tables))
	for i, t := range w.tables {
		names[i] = t.name
	}
	return Summary{
		ID: w.id, User: w.user, QueryCount: len(w.queries),
		Start: w.start, End: w.end, Tables: names,
	}
}

// session returns a caller-owned copy of the window, without edges.
func (w *window) session() Session {
	return Session{
		ID: w.id, User: w.user, Queries: slices.Clone(w.queries),
		Start: w.start, End: w.end,
	}
}

// after returns the index of the window's first query that sorts after rec.
func (w *window) after(rec *storage.QueryRecord) int {
	return sort.Search(len(w.queries), func(i int) bool { return chronoLess(rec, w.queries[i]) })
}

// tally is a multiset of names kept sorted: the handful of tables or groups
// one window touches.
type tally []tallyEntry

type tallyEntry struct {
	name string
	n    int
}

func (t *tally) add(name string, delta int) {
	s := *t
	i := sort.Search(len(s), func(i int) bool { return s[i].name >= name })
	switch {
	case i == len(s) || s[i].name != name:
		*t = slices.Insert(s, i, tallyEntry{name, delta})
	case s[i].n+delta == 0:
		*t = slices.Delete(s, i, i+1)
	default:
		s[i].n += delta
	}
}

// AttachLive builds a live detector over the store's current contents and
// subscribes it to the mutation event bus. Registration and the initial
// segmentation run under the store's commit lock, so no mutation can slip
// between them; WAL replay maintains the windows incrementally, and a
// snapshot restore re-segments the restored records (the IDs need no
// checkpoint: they are named from the records).
func AttachLive(store *storage.Store) *Live {
	l := &Live{store: store, users: make(map[string][]*window)}
	store.Subscribe("sessions", l.onMutation, storage.SubscribeOptions{Init: l.rebuild, Reset: l.rebuild})
	return l
}

// rebuild re-segments the whole store from scratch (initial seeding, and
// after a snapshot restore). It is the one place the live detector sorts and
// segments a whole stream; like every other write-side path it labels
// nothing.
func (l *Live) rebuild() {
	byUser := streamsOf(l.store.Snapshot().Records(storage.Principal{Admin: true}))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.users = make(map[string][]*window, len(byUser))
	l.byID = nil
	for user, recs := range byUser {
		parts := segment(recs)
		wins := make([]*window, len(parts))
		for i, part := range parts {
			wins[i] = newWindow(user, part)
		}
		l.users[user] = wins
		l.byID = append(l.byID, wins...)
	}
	sort.Slice(l.byID, func(i, j int) bool { return l.byID[i].id < l.byID[j].id })
}

// ---------------------------------------------------------------------------
// Write side: local edits. Everything below runs with l.mu held, under the
// store's commit lock.
// ---------------------------------------------------------------------------

// onMutation maintains the session windows for one committed mutation.
func (l *Live) onMutation(m *storage.Mutation) {
	prev, next := m.Prev(), m.Next()
	l.mu.Lock()
	defer l.mu.Unlock()
	switch m.Op {
	case storage.OpPut:
		switch {
		case next == nil:
		case prev == nil:
			l.insertLocked(next)
		case prev.User == next.User && prev.IssuedAt.Equal(next.IssuedAt):
			// Replay over an existing ID (a snapshot/segment overlap): the
			// record keeps its place, only its content may differ.
			l.replaceLocked(prev, next)
		default:
			// A replayed put that moves the record is two edits.
			l.removeLocked(prev)
			l.insertLocked(next)
		}
	case storage.OpDelete:
		if prev != nil {
			l.removeLocked(prev)
		}
	case storage.OpReplaceText:
		// The repaired text changes the feature set, so the similarity-based
		// boundaries on both sides of the record may flip.
		if prev != nil && next != nil {
			l.replaceLocked(prev, next)
		}
	default:
		// Field updates (visibility, annotations, maintenance flags, runtime
		// stats, ...) never move session boundaries; swap in the new record
		// version so reads return it and the visibility counts stay current.
		if next == nil {
			return
		}
		if wins, k, i, ok := l.findLocked(next); ok {
			wins[k].replace(i, next)
		}
	}
}

// cutLocked evaluates the boundary between two neighbours, counted.
func (l *Live) cutLocked(prev, rec *storage.QueryRecord) bool {
	l.cuts++
	return boundary(prev, rec)
}

// windowAt returns the index of the last window that starts at or before rec
// in chronological order, -1 when rec precedes every window.
func windowAt(wins []*window, rec *storage.QueryRecord) int {
	return sort.Search(len(wins), func(k int) bool { return chronoLess(rec, wins[k].head()) }) - 1
}

// findLocked locates a tracked record — any version of it: field updates and
// text repairs keep User, IssuedAt and ID — as query i of wins[k].
func (l *Live) findLocked(rec *storage.QueryRecord) (wins []*window, k, i int, ok bool) {
	wins = l.users[rec.User]
	if k = windowAt(wins, rec); k < 0 {
		return nil, 0, 0, false
	}
	i = wins[k].after(rec) - 1
	return wins, k, i, wins[k].queries[i].ID == rec.ID
}

// indexLocked returns the position in byID of the first window whose ID is
// at least id.
func (l *Live) indexLocked(id int64) int {
	return sort.Search(len(l.byID), func(i int) bool { return l.byID[i].id >= id })
}

// openLocked starts a window over queries as the user's k-th.
func (l *Live) openLocked(user string, k int, queries []*storage.QueryRecord) {
	w := newWindow(user, queries)
	l.users[user] = slices.Insert(l.users[user], k, w)
	l.byID = slices.Insert(l.byID, l.indexLocked(w.id), w)
}

// retireLocked forgets the user's k-th window and its ID.
func (l *Live) retireLocked(user string, k int) {
	wins := l.users[user]
	at := l.indexLocked(wins[k].id)
	l.byID = slices.Delete(l.byID, at, at+1)
	if wins = slices.Delete(wins, k, k+1); len(wins) == 0 {
		delete(l.users, user)
		return
	}
	l.users[user] = wins
}

// renameLocked gives w the ID id, which no other window holds, and moves it
// to its place in byID, shifting only the windows between the two places.
func (l *Live) renameLocked(w *window, id int64) {
	if id == w.id {
		return
	}
	from, to := l.indexLocked(w.id), l.indexLocked(id)
	if to > from {
		to-- // w's old place closes up in front of its new one
		copy(l.byID[from:to], l.byID[from+1:to+1])
	} else {
		copy(l.byID[to+1:from+1], l.byID[to:from])
	}
	l.byID[to] = w
	w.id = id
}

// placeLocked puts rec as query i of w, which takes rec's ID if it is lower.
func (l *Live) placeLocked(w *window, i int, rec *storage.QueryRecord) {
	w.insert(i, rec)
	l.renameLocked(w, min(w.id, int64(rec.ID)))
}

// splitLocked cuts the user's k-th window in front of its query i: the later
// part becomes window k+1, and each part is named by its own lowest ID.
func (l *Live) splitLocked(user string, k, i int) {
	l.edits[editSplit].Inc()
	w := l.users[user][k]
	later := w.queries[i:]
	w.queries = w.queries[:i:i]
	w.retime()
	moved := false // the lowest query went with the later part
	for _, q := range later {
		w.count(q, -1)
		moved = moved || int64(q.ID) == w.id
	}
	if moved {
		l.renameLocked(w, lowestID(w.queries))
	}
	l.openLocked(user, k+1, later)
}

// mergeLocked appends the user's window k+1 to window k, which keeps the
// lower of the two IDs.
func (l *Live) mergeLocked(user string, k int) {
	l.edits[editMerge].Inc()
	wins := l.users[user]
	w, later := wins[k], wins[k+1]
	w.queries = append(w.queries, later.queries...)
	w.retime()
	for _, t := range later.tables {
		w.tables.add(t.name, t.n)
	}
	for _, g := range later.groups {
		w.groups.add(g.name, g.n)
	}
	w.hidden += later.hidden
	l.retireLocked(user, k+1)
	l.renameLocked(w, min(w.id, later.id))
}

// insertLocked places a fresh record. At the chronological tail of its
// user's stream — live submissions from one connection, in-order WAL replay —
// that is one boundary evaluation; anywhere else (a second connection of the
// same user, a batch stamped before its commit) a binary search and two.
func (l *Live) insertLocked(rec *storage.QueryRecord) {
	user := rec.User
	wins := l.users[user]
	// rec lands between pred and succ: behind query i-1 of window k (k = -1:
	// before every window) and, when inside is set, in front of query i of
	// the same window; otherwise succ heads window k+1.
	k, i := len(wins)-1, 0
	var pred, succ *storage.QueryRecord
	if k < 0 || !chronoLess(rec, wins[k].tail()) {
		l.edits[editAppend].Inc()
		if k >= 0 {
			pred = wins[k].tail()
		}
	} else {
		l.edits[editInsert].Inc()
		if k = windowAt(wins, rec); k >= 0 {
			i = wins[k].after(rec)
			pred = wins[k].queries[i-1]
			if i < len(wins[k].queries) {
				succ = wins[k].queries[i]
			}
		}
	}
	inside := succ != nil
	if !inside && k+1 < len(wins) {
		succ = wins[k+1].head()
	}
	joinsPred := pred != nil && !l.cutLocked(pred, rec)
	joinsSucc := succ != nil && !l.cutLocked(rec, succ)
	if inside && joinsPred && joinsSucc {
		l.placeLocked(wins[k], i, rec)
		return
	}
	if inside {
		// A boundary appeared inside the window: cut it where rec goes, and
		// rec is then between two windows like any other.
		l.splitLocked(user, k, i)
		wins = l.users[user]
	}
	switch {
	case joinsPred:
		l.placeLocked(wins[k], len(wins[k].queries), rec)
		if joinsSucc {
			l.mergeLocked(user, k)
		}
	case joinsSucc:
		l.placeLocked(wins[k+1], 0, rec)
	default:
		l.openLocked(user, k+1, []*storage.QueryRecord{rec})
	}
}

// removeLocked drops a record and re-evaluates the one pair its removal made
// adjacent.
func (l *Live) removeLocked(rec *storage.QueryRecord) {
	wins, k, i, ok := l.findLocked(rec)
	if !ok {
		return
	}
	l.edits[editDelete].Inc()
	w := wins[k]
	w.remove(i)
	switch {
	case len(w.queries) == 0:
		l.retireLocked(rec.User, k) // its successor, if any, is window k now
	case int64(rec.ID) == w.id:
		l.renameLocked(w, lowestID(w.queries))
	}
	l.reviewLocked(rec.User, k, i)
}

// replaceLocked swaps in a new version of a record whose features may have
// changed and re-evaluates the boundary on each side of it.
func (l *Live) replaceLocked(prev, next *storage.QueryRecord) {
	wins, k, i, ok := l.findLocked(prev)
	if !ok {
		return
	}
	l.edits[editRetext].Inc()
	wins[k].replace(i, next)
	k, i = l.reviewLocked(next.User, k, i)
	l.reviewLocked(next.User, k, i+1)
}

// reviewLocked re-evaluates the boundary in front of query i of the user's
// k-th window — the one decision a local edit can change there. If the query
// now starts a session its window is split in front of it; if it heads its
// window but now continues the previous one, the two are merged. i may be
// one past the window's end, meaning the head of the next window. It returns
// where the query sits afterwards.
func (l *Live) reviewLocked(user string, k, i int) (int, int) {
	wins := l.users[user]
	if k < len(wins) && i == len(wins[k].queries) {
		k, i = k+1, 0
	}
	if k >= len(wins) {
		return k, i
	}
	w := wins[k]
	switch {
	case i > 0:
		if l.cutLocked(w.queries[i-1], w.queries[i]) {
			l.splitLocked(user, k, i)
			return k + 1, 0
		}
	case k > 0:
		if before := wins[k-1]; !l.cutLocked(before.tail(), w.head()) {
			n := len(before.queries)
			l.mergeLocked(user, k-1)
			return k - 1, n
		}
	}
	return k, i
}

// ---------------------------------------------------------------------------
// Read API
// ---------------------------------------------------------------------------

// Count returns how many sessions the detector currently tracks.
func (l *Live) Count() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.byID)
}

// BoundaryEvaluations returns how many adjacent-pair boundary decisions the
// local edits have made since the detector was attached: the write side's
// unit of work, at most two per mutation (three for a replayed put that
// moves a record) whatever the length of the stream.
func (l *Live) BoundaryEvaluations() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.cuts
}

// Summaries returns at most limit summaries (limit <= 0 means unbounded) of
// the sessions fully visible to the principal with ID strictly greater than
// after, in ascending ID order. It costs a binary search for the cursor plus
// the windows it passes over, none of which it walks.
func (l *Live) Summaries(p storage.Principal, after int64, limit int) []Summary {
	l.mu.RLock()
	defer l.mu.RUnlock()
	from := sort.Search(len(l.byID), func(i int) bool { return l.byID[i].id > after })
	var out []Summary
	for _, w := range l.byID[from:] {
		if !w.visibleTo(p) {
			continue
		}
		if out == nil {
			room := len(l.byID) - from
			if limit > 0 {
				room = min(room, limit)
			}
			out = make([]Summary, 0, room)
		}
		out = append(out, w.summary())
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Get returns a caller-owned copy of one session with its edges labelled,
// whether it exists, and whether it is fully visible to the principal. The
// labels are computed here, after the detector's lock is released.
func (l *Live) Get(p storage.Principal, id int64) (sess Session, ok, visible bool) {
	l.mu.RLock()
	at := sort.Search(len(l.byID), func(i int) bool { return l.byID[i].id >= id })
	if at < len(l.byID) && l.byID[at].id == id {
		ok = true
		if w := l.byID[at]; w.visibleTo(p) {
			sess, visible = w.session(), true
		}
	}
	l.mu.RUnlock()
	if visible {
		sess.Edges = l.labelAll(sess.Queries)
	}
	return sess, ok, visible
}

// SessionOf returns the ID of the session holding the record — any version
// of it: field updates and text repairs keep User, IssuedAt and ID — or 0
// when the detector does not track it (it was deleted). It costs a binary
// search of the record's user's windows and one of the window.
func (l *Live) SessionOf(rec *storage.QueryRecord) int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if wins, k, _, ok := l.findLocked(rec); ok {
		return wins[k].id
	}
	return 0
}

// Export returns caller-owned copies of every tracked session in ascending
// ID order, every edge labelled after the detector's lock is released.
func (l *Live) Export() []Session {
	l.mu.RLock()
	out := make([]Session, len(l.byID))
	for i, w := range l.byID {
		out[i] = w.session()
	}
	l.mu.RUnlock()
	for i := range out {
		out[i].Edges = l.labelAll(out[i].Queries)
	}
	return out
}

func (l *Live) labelAll(queries []*storage.QueryRecord) []Edge {
	l.labels.Load().Add(uint64(max(len(queries)-1, 0)))
	return labelEdges(queries)
}

// EnableMetrics registers the live detector's instruments: the session count
// gauge, the local edits by kind, and the edge labels computed. A nil
// registry is a no-op.
func (l *Live) EnableMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("cqms_sessions_live",
		"Sessions the live detector currently tracks.",
		func() float64 { return float64(l.Count()) })
	edits := reg.CounterVec("cqms_sessions_edits_total",
		"Local edits of the session windows by kind: append (put at its user's chronological tail), insert (put anywhere else), delete, retext (text repair), and the structural outcomes split and merge.",
		"kind")
	l.labels.Store(reg.Counter("cqms_sessions_edge_labels_total",
		"Session edge labels (structural diffs) computed: on graph reads only, never while a mutation commits."))
	l.mu.Lock()
	for kind, name := range editKinds {
		l.edits[kind] = edits.With(name)
	}
	l.mu.Unlock()
}
