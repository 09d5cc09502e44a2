package session

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Live is the bus-driven incremental session detector: it maintains session
// windows from the storage mutation event bus, so session and graph reads
// are served from always-current state instead of re-segmenting the full
// query log on every mining pass. It applies exactly the batch segmenter's
// rules (shared segmentUser/boundary helpers): appends in chronological
// order extend or open a window in O(1), while out-of-order inserts,
// deletions and text repairs fall back to re-segmenting just the affected
// user's stream. It is safe for concurrent use: mutations arrive serialised
// under the store's commit lock, reads come from request-serving goroutines.
type Live struct {
	det   *Detector
	store *storage.Store

	mu     sync.RWMutex
	users  map[string][]*Session        // chronological windows per user
	byID   map[int64]*Session           // session lookup for graph reads
	loc    map[storage.QueryID]*Session // record → owning session
	nextID int64

	// resegments counts per-user re-segmentation fallbacks (out-of-order
	// inserts, deletions, text repairs) — the detector's slow path. Nil when
	// uninstrumented; guarded by mu like the state it describes.
	resegments *telemetry.Counter
}

// AttachLive builds a live detector over the store's current contents and
// subscribes it to the mutation event bus. Registration and the initial
// segmentation run under the store's commit lock, so no mutation can slip
// between them; WAL replay maintains the windows incrementally, and the
// Checkpoint/Restore pair lets WAL snapshots carry the detected sessions so
// recovery skips re-segmentation.
func AttachLive(store *storage.Store, cfg Config) *Live {
	l := &Live{
		det:   NewDetector(cfg),
		store: store,
		users: make(map[string][]*Session),
		byID:  make(map[int64]*Session),
		loc:   make(map[storage.QueryID]*Session),
	}
	rebuild := func() { l.rebuild() }
	store.Subscribe("sessions", l.onMutation, storage.SubscribeOptions{
		Init: rebuild, Reset: rebuild,
		Checkpoint: l.checkpoint, Restore: l.restore,
	})
	return l
}

// rebuild re-segments the whole store from scratch (initial seeding and the
// fallback after a RestoreState without a usable checkpoint).
func (l *Live) rebuild() {
	byUser := make(map[string][]*storage.QueryRecord)
	var maxPersisted int64
	l.store.Snapshot().Scan(storage.Principal{Admin: true}, func(rec *storage.QueryRecord) bool {
		byUser[rec.User] = append(byUser[rec.User], rec)
		if rec.SessionID > maxPersisted {
			maxPersisted = rec.SessionID
		}
		return true
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	l.users = make(map[string][]*Session, len(byUser))
	l.byID = make(map[int64]*Session)
	l.loc = make(map[storage.QueryID]*Session)
	// Seed the ID counter past every session ID persisted on the records
	// (written into Queries.sessionId by an earlier mining pass): a rebuild
	// reissues IDs, and reusing a persisted one would make /v1/sessions and
	// a `WHERE Queries.sessionId = N` meta-query name different partitions
	// with the same N. Disjoint IDs keep the stale feature relation merely
	// stale — as it always is between mining passes — never contradictory.
	l.nextID = maxPersisted
	for user, recs := range byUser {
		sortChrono(recs)
		for _, s := range l.det.segmentUser(user, recs) {
			sess := s
			l.registerLocked(&sess)
		}
	}
}

// registerLocked assigns the next session ID and indexes the session.
// Callers must hold l.mu.
func (l *Live) registerLocked(sess *Session) {
	l.nextID++
	sess.ID = l.nextID
	l.users[sess.User] = append(l.users[sess.User], sess)
	l.byID[sess.ID] = sess
	for _, q := range sess.Queries {
		l.loc[q.ID] = sess
	}
}

// dropUserLocked forgets every session of one user and returns the records
// they held. Callers must hold l.mu.
func (l *Live) dropUserLocked(user string) []*storage.QueryRecord {
	var recs []*storage.QueryRecord
	for _, sess := range l.users[user] {
		delete(l.byID, sess.ID)
		for _, q := range sess.Queries {
			delete(l.loc, q.ID)
			recs = append(recs, q)
		}
	}
	delete(l.users, user)
	return recs
}

// resegmentLocked re-runs segmentation over one user's records (any order;
// re-sorted here). The user's sessions get fresh IDs: a structural edit may
// have merged or split windows, so the old identities no longer apply.
// Callers must hold l.mu.
func (l *Live) resegmentLocked(user string, recs []*storage.QueryRecord) {
	l.resegments.Inc()
	sortChrono(recs)
	for _, s := range l.det.segmentUser(user, recs) {
		sess := s
		l.registerLocked(&sess)
	}
}

// onMutation maintains the session windows for one committed mutation. It
// runs under the store's commit lock.
func (l *Live) onMutation(m *storage.Mutation) {
	switch m.Op {
	case storage.OpPut:
		prev, next := m.Prev(), m.Next()
		if next == nil {
			return
		}
		l.mu.Lock()
		if prev != nil {
			// Replay over an existing ID replaced the record; re-segment the
			// affected user stream(s) with the new version in place.
			if prev.User == next.User {
				l.resegmentLocked(next.User, append(l.removeLocked(prev), next))
			} else {
				l.resegmentLocked(prev.User, l.removeLocked(prev))
				l.resegmentLocked(next.User, append(l.dropUserLocked(next.User), next))
			}
			l.mu.Unlock()
			return
		}
		l.appendLocked(next)
		l.mu.Unlock()
	case storage.OpDelete:
		prev := m.Prev()
		if prev == nil {
			return
		}
		l.mu.Lock()
		if _, tracked := l.loc[prev.ID]; tracked {
			l.resegmentLocked(prev.User, l.removeLocked(prev))
		}
		l.mu.Unlock()
	case storage.OpReplaceText:
		prev, next := m.Prev(), m.Next()
		if prev == nil || next == nil {
			return
		}
		// The repaired text changes the feature set, so similarity-based
		// boundaries and edge diffs may move anywhere in the user's stream.
		l.mu.Lock()
		if _, tracked := l.loc[prev.ID]; tracked {
			recs := append(l.removeLocked(prev), next)
			l.resegmentLocked(next.User, recs)
		}
		l.mu.Unlock()
	default:
		// Field updates (visibility, annotations, session assignment from a
		// mining pass, maintenance flags, runtime stats, ...) never move
		// session boundaries; swap in the new record version so visibility
		// filtering on reads stays current.
		next := m.Next()
		if next == nil {
			return
		}
		l.mu.Lock()
		// A replayed session assignment may carry an ID issued by a previous
		// process life; keep the counter beyond it so a later re-segmentation
		// cannot reissue an ID the feature relation already names.
		if m.Op == storage.OpAssignSession && m.SessionID > l.nextID {
			l.nextID = m.SessionID
		}
		if sess := l.loc[next.ID]; sess != nil {
			for i, q := range sess.Queries {
				if q.ID == next.ID {
					sess.Queries[i] = next
					break
				}
			}
		}
		l.mu.Unlock()
	}
}

// removeLocked drops one record's user stream from the indexes and returns
// that stream without the record. Callers must hold l.mu.
func (l *Live) removeLocked(rec *storage.QueryRecord) []*storage.QueryRecord {
	recs := l.dropUserLocked(rec.User)
	kept := recs[:0]
	for _, q := range recs {
		if q.ID != rec.ID {
			kept = append(kept, q)
		}
	}
	return kept
}

// appendLocked ingests a fresh record. When it lands at the chronological
// tail of its user's stream — the overwhelmingly common case for live
// submissions and in-order WAL replay — the last window is extended or a new
// one opened in O(1); anything out of order re-segments the user. Callers
// must hold l.mu.
func (l *Live) appendLocked(rec *storage.QueryRecord) {
	sessions := l.users[rec.User]
	if len(sessions) == 0 {
		l.registerLocked(&Session{
			User: rec.User, Start: rec.IssuedAt, End: rec.IssuedAt,
			Queries: []*storage.QueryRecord{rec},
		})
		return
	}
	last := sessions[len(sessions)-1]
	tail := last.Queries[len(last.Queries)-1]
	if chronoLess(rec, tail) {
		recs := append(l.dropUserLocked(rec.User), rec)
		l.resegmentLocked(rec.User, recs)
		return
	}
	if l.det.boundary(tail, rec) {
		l.registerLocked(&Session{
			User: rec.User, Start: rec.IssuedAt, End: rec.IssuedAt,
			Queries: []*storage.QueryRecord{rec},
		})
		return
	}
	last.Edges = append(last.Edges, edgeBetween(tail, rec))
	last.Queries = append(last.Queries, rec)
	last.End = rec.IssuedAt
	l.loc[rec.ID] = last
}

// ---------------------------------------------------------------------------
// Read API
// ---------------------------------------------------------------------------

// copySessionLocked returns a caller-owned shallow copy of a session (fresh
// slices over the shared immutable records). Callers must hold l.mu.
func copySessionLocked(sess *Session) Session {
	out := *sess
	out.Queries = append([]*storage.QueryRecord(nil), sess.Queries...)
	out.Edges = append([]storage.SessionEdge(nil), sess.Edges...)
	return out
}

// visibleLocked reports whether every query of the session is visible to the
// principal. Callers must hold l.mu.
func visibleLocked(sess *Session, p storage.Principal) bool {
	for _, q := range sess.Queries {
		if !q.VisibleTo(p) {
			return false
		}
	}
	return true
}

// Count returns how many sessions the detector currently tracks.
func (l *Live) Count() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.byID)
}

// Summaries returns at most limit summaries (limit <= 0 means unbounded) of
// the sessions fully visible to the principal with ID strictly greater than
// after, in ascending ID order.
func (l *Live) Summaries(p storage.Principal, after int64, limit int) []Summary {
	l.mu.RLock()
	defer l.mu.RUnlock()
	ids := make([]int64, 0, len(l.byID))
	for id := range l.byID {
		if id > after {
			ids = append(ids, id)
		}
	}
	sortInt64s(ids)
	var out []Summary
	for _, id := range ids {
		sess := l.byID[id]
		if !visibleLocked(sess, p) {
			continue
		}
		out = append(out, Summarize(sess))
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Get returns a caller-owned copy of one session, whether it exists, and
// whether it is fully visible to the principal.
func (l *Live) Get(p storage.Principal, id int64) (sess Session, ok, visible bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	s := l.byID[id]
	if s == nil {
		return Session{}, false, false
	}
	if !visibleLocked(s, p) {
		return Session{}, true, false
	}
	return copySessionLocked(s), true, true
}

// Export returns caller-owned copies of every tracked session, in ascending
// ID order. Callers use it to persist session assignments back into the
// store — which must happen outside this call, since store mutations re-enter
// the detector through the bus.
func (l *Live) Export() []Session {
	l.mu.RLock()
	defer l.mu.RUnlock()
	ids := make([]int64, 0, len(l.byID))
	for id := range l.byID {
		ids = append(ids, id)
	}
	sortInt64s(ids)
	out := make([]Session, 0, len(ids))
	for _, id := range ids {
		out = append(out, copySessionLocked(l.byID[id]))
	}
	return out
}

func sortInt64s(ids []int64) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// ---------------------------------------------------------------------------
// Checkpoint / Restore
// ---------------------------------------------------------------------------

// LiveCheckpointVersion is the serialization version of the live detector's
// WAL snapshot sidecar. Version 1 was JSON; version 2 is binary
// (internal/wire primitives):
//
//	nextID varint | n x session
//	session: ID varint | user string | n x query ID varint |
//	         n x edge (storage.AppendEdge)
//
// A session references its records by ID — the records themselves live in
// the snapshot's record chunks — and carries its edges verbatim so restore
// does not recompute structural diffs.
const LiveCheckpointVersion = 2

func (l *Live) checkpoint() (int, []byte, error) {
	// Encode under the lock: appendLocked extends the sessions in place.
	l.mu.RLock()
	defer l.mu.RUnlock()
	ids := make([]int64, 0, len(l.byID))
	for id := range l.byID {
		ids = append(ids, id)
	}
	sortInt64s(ids)
	data := binary.AppendVarint(nil, l.nextID)
	data = binary.AppendUvarint(data, uint64(len(ids)))
	for _, id := range ids {
		sess := l.byID[id]
		data = binary.AppendVarint(data, sess.ID)
		data = wire.AppendString(data, sess.User)
		data = binary.AppendUvarint(data, uint64(len(sess.Queries)))
		for _, q := range sess.Queries {
			data = binary.AppendVarint(data, int64(q.ID))
		}
		data = binary.AppendUvarint(data, uint64(len(sess.Edges)))
		for _, e := range sess.Edges {
			data = storage.AppendEdge(data, e)
		}
	}
	return LiveCheckpointVersion, data, nil
}

func (l *Live) restore(version int, data []byte) error {
	if version != LiveCheckpointVersion {
		return fmt.Errorf("session: unknown checkpoint version %d", version)
	}
	r := wire.NewReader(data)
	nextID := r.Varint()
	// Resolve the referenced records against the just-restored store; any
	// dangling reference means the checkpoint does not match the snapshot it
	// rode in, and the caller falls back to re-segmentation.
	view := l.store.Snapshot()
	admin := storage.Principal{Admin: true}
	users := make(map[string][]*Session)
	byID := make(map[int64]*Session)
	loc := make(map[storage.QueryID]*Session)
	for n := r.Count(4); n > 0 && r.Err() == nil; n-- { // ID, user, two counts
		sess := &Session{ID: r.Varint(), User: r.String()}
		if queries := r.Count(1); queries > 0 {
			sess.Queries = make([]*storage.QueryRecord, 0, queries)
			for ; queries > 0 && r.Err() == nil; queries-- {
				qid := storage.QueryID(r.Varint())
				rec, err := view.Get(qid, admin)
				if err != nil {
					return fmt.Errorf("session: checkpoint references query %d: %w", qid, err)
				}
				sess.Queries = append(sess.Queries, rec)
			}
		}
		if edges := r.Count(4); edges > 0 { // from, to, type, diff
			sess.Edges = make([]storage.SessionEdge, 0, edges)
			for ; edges > 0 && r.Err() == nil; edges-- {
				sess.Edges = append(sess.Edges, storage.ReadEdge(&r))
			}
		}
		if r.Err() != nil {
			break
		}
		if len(sess.Queries) == 0 {
			return fmt.Errorf("session: checkpoint session %d is empty", sess.ID)
		}
		sess.Start = sess.Queries[0].IssuedAt
		sess.End = sess.Queries[len(sess.Queries)-1].IssuedAt
		users[sess.User] = append(users[sess.User], sess)
		byID[sess.ID] = sess
		for _, q := range sess.Queries {
			loc[q.ID] = sess
		}
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("session: decoding checkpoint: %w", err)
	}
	l.mu.Lock()
	l.users, l.byID, l.loc, l.nextID = users, byID, loc, nextID
	l.mu.Unlock()
	return nil
}

// EnableMetrics registers the live detector's instruments: a session count
// gauge and the re-segmentation fallback counter. A nil registry is a no-op.
func (l *Live) EnableMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("cqms_sessions_live",
		"Sessions the live detector currently tracks.",
		func() float64 { return float64(l.Count()) })
	c := reg.Counter("cqms_sessions_resegments_total",
		"Per-user re-segmentation fallbacks (out-of-order insert, delete or text repair).")
	l.mu.Lock()
	l.resegments = c
	l.mu.Unlock()
}
