package session

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Live is the bus-driven incremental session detector: it maintains session
// windows from the storage mutation event bus, so session and graph reads
// are served from always-current state instead of re-segmenting the full
// query log on every mining pass.
//
// The segmentation rule reads adjacent pairs only (Detector.boundary), so
// every mutation is a local edit: the record's place in its user's stream is
// found by binary search on (IssuedAt, ID) and only the boundary in front of
// it and the one behind it are re-evaluated — at most two boundary
// evaluations per mutation, whatever the stream's length and wherever the
// record lands. The write side computes no edge label: Figure 2's diffs are
// computed when a graph is read (Get, Export), outside the detector's lock
// and the store's commit lock.
//
// Session IDs are stable. A window keeps its ID through every edit; when a
// window splits, the part holding its first query keeps the ID and the later
// part takes the next one; when two windows merge, the later window's ID is
// dropped. IDs are therefore a pure function of the mutation order, which is
// what makes a follower, a WAL replay and a snapshot-plus-tail recovery agree
// with the primary on them. The detector is the one home of session
// membership: the store keeps no copy, and every reader of a record's session
// asks SessionOf.
//
// It is safe for concurrent use: mutations arrive serialised under the
// store's commit lock, reads come from request-serving goroutines.
type Live struct {
	det   *Detector
	store *storage.Store

	mu sync.RWMutex
	// users holds each user's windows in chronological order; byID holds
	// every window in ascending ID order (IDs are issued ascending, so a new
	// window always goes last). A record is found from its own (User,
	// IssuedAt, ID), so there is no per-record index.
	users  map[string][]*window
	byID   []*window
	nextID int64

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
	editSplit  // a window was cut in two; the later part took a new ID
	editMerge  // two windows were joined; the later ID was dropped
)

var editKinds = [...]string{"append", "insert", "delete", "retext", "split", "merge"}

// window is one live session.
type window struct {
	id   int64
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

func newWindow(id int64, user string, queries []*storage.QueryRecord) *window {
	w := &window{id: id, user: user, queries: queries}
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
// between them; WAL replay maintains the windows incrementally, and the
// Checkpoint/Restore pair lets WAL snapshots carry the detected sessions so
// recovery skips re-segmentation.
func AttachLive(store *storage.Store, cfg Config) *Live {
	l := newLive(store, cfg)
	store.Subscribe("sessions", l.onMutation, storage.SubscribeOptions{
		Init: l.rebuild, Reset: l.rebuild,
		Checkpoint: l.checkpoint, Restore: l.restore,
	})
	return l
}

func newLive(store *storage.Store, cfg Config) *Live {
	return &Live{det: NewDetector(cfg), store: store, users: make(map[string][]*window)}
}

// rebuild re-segments the whole store from scratch (initial seeding and the
// fallback after a RestoreState without a usable checkpoint). It is the one
// place the live detector sorts and segments a whole stream; like every other
// write-side path it labels nothing.
func (l *Live) rebuild() {
	records := l.store.Snapshot().Records(storage.Principal{Admin: true})
	// Users are numbered in name order, as batch Detect numbers them: two
	// rebuilds of one store must agree on every ID.
	users, byUser := streamsOf(records)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.users = make(map[string][]*window, len(users))
	l.byID = nil
	l.nextID = 0
	for _, user := range users {
		parts := l.det.segment(byUser[user])
		wins := make([]*window, len(parts))
		for i, part := range parts {
			l.nextID++
			wins[i] = newWindow(l.nextID, user, part)
		}
		l.users[user] = wins
		l.byID = append(l.byID, wins...)
	}
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
	return l.det.boundary(prev, rec)
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

// openLocked starts a window over queries, with the next ID, as the user's
// k-th.
func (l *Live) openLocked(user string, k int, queries []*storage.QueryRecord) {
	l.nextID++
	w := newWindow(l.nextID, user, queries)
	l.users[user] = slices.Insert(l.users[user], k, w)
	l.byID = append(l.byID, w)
}

// retireLocked forgets the user's k-th window and its ID.
func (l *Live) retireLocked(user string, k int) {
	wins := l.users[user]
	id := wins[k].id
	at := sort.Search(len(l.byID), func(i int) bool { return l.byID[i].id >= id })
	l.byID = slices.Delete(l.byID, at, at+1)
	if wins = slices.Delete(wins, k, k+1); len(wins) == 0 {
		delete(l.users, user)
		return
	}
	l.users[user] = wins
}

// splitLocked cuts the user's k-th window in front of its query i: the part
// holding the first query keeps the ID, the later part becomes window k+1
// with the next ID.
func (l *Live) splitLocked(user string, k, i int) {
	l.edits[editSplit].Inc()
	w := l.users[user][k]
	later := w.queries[i:]
	w.queries = w.queries[:i:i]
	w.retime()
	for _, q := range later {
		w.count(q, -1)
	}
	l.openLocked(user, k+1, later)
}

// mergeLocked appends the user's window k+1 to window k and retires the
// later window's ID.
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
		wins[k].insert(i, rec)
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
		wins[k].insert(len(wins[k].queries), rec)
		if joinsSucc {
			l.mergeLocked(user, k)
		}
	case joinsSucc:
		wins[k+1].insert(0, rec)
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
	wins[k].remove(i)
	if len(wins[k].queries) == 0 {
		l.retireLocked(rec.User, k) // its successor, if any, is window k now
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

func (l *Live) labelAll(queries []*storage.QueryRecord) []storage.SessionEdge {
	l.labels.Load().Add(uint64(max(len(queries)-1, 0)))
	return labelEdges(queries)
}

// ---------------------------------------------------------------------------
// Checkpoint / Restore
// ---------------------------------------------------------------------------

// LiveCheckpointVersion is the serialization version of the live detector's
// WAL snapshot sidecar. Version 1 was JSON; version 2 listed sessions in ID
// order with their labelled edges. Version 3 is the windows alone
// (internal/wire primitives):
//
//	nextID varint | n x user, in name order
//	user:   name string | n x window, in chronological order
//	window: ID varint | n x query ID varint
//
// A window references its records by ID — the records themselves live in the
// snapshot's record chunks. The order within a user is written down because
// it is not recoverable from the IDs: a split gives the later part of an old
// window a newer ID than the windows that follow it.
const LiveCheckpointVersion = 3

func (l *Live) checkpoint() (int, []byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	users := make([]string, 0, len(l.users))
	for user := range l.users {
		users = append(users, user)
	}
	sort.Strings(users)
	data := binary.AppendVarint(nil, l.nextID)
	data = binary.AppendUvarint(data, uint64(len(users)))
	for _, user := range users {
		wins := l.users[user]
		data = wire.AppendString(data, user)
		data = binary.AppendUvarint(data, uint64(len(wins)))
		for _, w := range wins {
			data = binary.AppendVarint(data, w.id)
			data = binary.AppendUvarint(data, uint64(len(w.queries)))
			for _, q := range w.queries {
				data = binary.AppendVarint(data, int64(q.ID))
			}
		}
	}
	return LiveCheckpointVersion, data, nil
}

// restore loads a checkpoint against the just-restored store. The section
// arrives from disk or over the replication stream, and the local edits
// trust what it establishes, so everything their binary searches rely on is
// verified: every record of the store in exactly one window, owned by that
// window's user, strictly chronological within a window and across a user's
// windows, window IDs distinct and not beyond nextID. Any violation — like
// any other version — is an error, and the bus falls back to rebuild.
func (l *Live) restore(version int, data []byte) error {
	if version != LiveCheckpointVersion {
		return fmt.Errorf("session: unknown checkpoint version %d", version)
	}
	r := wire.NewReader(data)
	nextID := r.Varint()
	view := l.store.Snapshot()
	admin := storage.Principal{Admin: true}
	users := make(map[string][]*window)
	var byID []*window
	records := 0
	for n := r.Count(3); n > 0 && r.Err() == nil; n-- { // name length, window count, one window
		user := r.String()
		if _, dup := users[user]; dup {
			return fmt.Errorf("session: checkpoint lists user %q twice", user)
		}
		var last *storage.QueryRecord
		for wn := r.Count(3); wn > 0 && r.Err() == nil; wn-- { // ID, query count, one query
			id, qn := r.Varint(), r.Count(1)
			queries := make([]*storage.QueryRecord, 0, qn)
			for ; qn > 0 && r.Err() == nil; qn-- {
				qid := storage.QueryID(r.Varint())
				rec, err := view.Get(qid, admin)
				if err != nil {
					return fmt.Errorf("session: checkpoint references query %d: %w", qid, err)
				}
				if rec.User != user {
					return fmt.Errorf("session: checkpoint files query %d of %q under %q", qid, rec.User, user)
				}
				if last != nil && !chronoLess(last, rec) {
					return fmt.Errorf("session: checkpoint lists query %d out of order", qid)
				}
				queries = append(queries, rec)
				last = rec
			}
			if r.Err() != nil {
				break
			}
			if len(queries) == 0 || id <= 0 || id > nextID {
				return fmt.Errorf("session: checkpoint session %d is empty or beyond the ID counter %d", id, nextID)
			}
			w := newWindow(id, user, queries)
			users[user] = append(users[user], w)
			byID = append(byID, w)
			records += len(queries)
		}
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("session: decoding checkpoint: %w", err)
	}
	if records != l.store.Count() {
		return fmt.Errorf("session: checkpoint holds %d queries, the store %d", records, l.store.Count())
	}
	sort.Slice(byID, func(i, j int) bool { return byID[i].id < byID[j].id })
	for i := 1; i < len(byID); i++ {
		if byID[i].id == byID[i-1].id {
			return fmt.Errorf("session: checkpoint issues session ID %d twice", byID[i].id)
		}
	}
	l.mu.Lock()
	l.users, l.byID, l.nextID = users, byID, nextID
	l.mu.Unlock()
	return nil
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
