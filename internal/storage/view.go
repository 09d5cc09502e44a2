package storage

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// View is a zero-clone read view over the store, created by Store.Snapshot.
//
// Consistency contract:
//
//   - Record-level atomicity: records are immutable; a scan observes each
//     record either entirely before or entirely after any mutation, never a
//     half-applied one.
//   - Membership: Scan visits the queries whose IDs are at most the
//     high-water mark the snapshot was taken at, in ID (temporal) order —
//     queries inserted afterwards carry higher IDs and are not visited,
//     queries deleted afterwards are skipped.
//   - Freshness: record contents are resolved at read time, so a long-lived
//     view observes the latest committed version of each record (not the
//     version that was current at snapshot time).
//   - The indexed variants (ScanByTable, ...) resolve the index postings
//     when they are called, restricted to the snapshot's membership; a
//     by-table scan skips a record re-texted off the table since.
//
// Records handed to scan callbacks are shared and MUST NOT be mutated; use
// QueryRecord.Clone for an owned copy. All scans enforce the storage layer's
// access-control rules for the given principal.
type View struct {
	store *Store
	// limit is the ID high-water mark at snapshot time: scans skip IDs above
	// it so queries inserted after the snapshot stay invisible (IDs are
	// assigned monotonically and never reused).
	limit QueryID
	// count is the number of records stored at snapshot time (View.Len).
	count int
}

// Snapshot captures a consistent read view of the store. It is cheap — two
// atomic loads, no lock and no copying of records — so callers should take a
// fresh snapshot per logical read operation.
func (s *Store) Snapshot() *View {
	return &View{store: s, limit: QueryID(s.nextID.Load()), count: s.Count()}
}

// SnapshotAt captures a read view whose membership is pinned at an earlier
// high-water mark (a View.Limit from a previous Snapshot). Queries inserted
// after that mark are invisible; queries deleted since are skipped. It is the
// primitive behind cursor pagination: every page of one logical listing is
// served from views pinned at the same mark, so paginating to exhaustion
// yields exactly the first page's membership regardless of concurrent
// inserts.
func (s *Store) SnapshotAt(limit QueryID) *View {
	return &View{store: s, limit: min(limit, QueryID(s.nextID.Load())), count: s.Count()}
}

// HighWater returns the current ID high-water mark: every stored query has
// ID <= HighWater(), and IDs are assigned monotonically and never reused.
func (s *Store) HighWater() QueryID { return QueryID(s.nextID.Load()) }

// Limit returns the view's ID high-water mark (the membership boundary).
// Pass it to SnapshotAt to build later views pinned at the same membership.
func (v *View) Limit() QueryID { return v.limit }

// ScanCheckEvery is how many records a context-aware scan visits between
// context checks: a power of two so the check compiles to a mask, small
// enough that a cancelled request stops a scan within microseconds.
const ScanCheckEvery = 64

// ScanWithContext wraps a scan callback with a periodic context check so
// that a long scan over the query log aborts soon after the caller goes away
// (client disconnect, request timeout). Callers must inspect ctx.Err()
// afterwards to distinguish an aborted scan from an exhausted one; partial
// results from an aborted scan are discarded by the serving layers.
func ScanWithContext(ctx context.Context, fn func(*QueryRecord) bool) func(*QueryRecord) bool {
	n := 0
	return func(rec *QueryRecord) bool {
		if n++; n&(ScanCheckEvery-1) == 0 && ctx.Err() != nil {
			return false
		}
		return fn(rec)
	}
}

// Len returns the number of queries stored when the snapshot was taken
// (including any deleted since, which scans skip).
func (v *View) Len() int { return v.count }

// Get returns the current version of a visible record without cloning it.
// The record must be treated as read-only. Queries past the view's limit or
// deleted since the snapshot report ErrNotFound.
func (v *View) Get(id QueryID, p Principal) (*QueryRecord, error) {
	rec, ok := v.store.loadRecord(id)
	if !ok || id > v.limit {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	if !rec.VisibleTo(p) {
		return nil, fmt.Errorf("%w: query %d", ErrAccessDenied, id)
	}
	return rec, nil
}

// scanIDs drives a scan over an ascending index bucket, skipping IDs past the
// snapshot, deleted records and records invisible to the principal. The
// callback returns false to stop.
func (v *View) scanIDs(ids []QueryID, p Principal, fn func(*QueryRecord) bool) {
	for _, id := range ids {
		if id > v.limit {
			continue
		}
		rec, ok := v.store.loadRecord(id)
		if !ok || !rec.VisibleTo(p) {
			continue
		}
		if !fn(rec) {
			return
		}
	}
}

// Scan visits every visible record in ID (temporal) order. Return false from
// fn to stop early.
func (v *View) Scan(p Principal, fn func(*QueryRecord) bool) {
	v.ScanAfter(0, p, fn)
}

// after narrows an ascending index bucket to the suffix strictly greater than
// the cursor ID. IDs are assigned monotonically under the commit lock and the
// buckets are kept sorted, so a binary search finds the resume point: a page
// costs O(log n + page) instead of rescanning the prefix.
func after(ids []QueryID, cursor QueryID) []QueryID {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] > cursor })
	return ids[i:]
}

// ScanAfter is Scan resuming strictly after the given query ID: a walk of the
// record table over the IDs in (cursor, limit] that skips empty slots, a leaf
// no record ever had an ID in costing one check. With a view pinned by
// SnapshotAt, repeated ScanAfter calls paginate the snapshot's membership
// without duplicates or gaps under concurrent inserts.
func (v *View) ScanAfter(cursor QueryID, p Principal, fn func(*QueryRecord) bool) {
	dir := *v.store.records.Load()
	last := min(v.limit, QueryID(len(dir))<<leafBits-1)
	for id := min(max(cursor, 0), last) + 1; id <= last; {
		l := dir[id>>leafBits]
		if l == nil {
			id = (id>>leafBits + 1) << leafBits
			continue
		}
		for end := min(last, id|(leafSize-1)); id <= end; id++ {
			if rec := l[id&(leafSize-1)].Load(); rec != nil && rec.VisibleTo(p) && !fn(rec) {
				return
			}
		}
	}
}

// ScanByUserAfter visits the visible queries submitted by the given user, in
// temporal order, resuming strictly after the given query ID.
func (v *View) ScanByUserAfter(user string, cursor QueryID, p Principal, fn func(*QueryRecord) bool) {
	v.scanIDs(after(v.store.indexUser(user), cursor), p, fn)
}

// scanAll visits every record in the snapshot regardless of visibility; it
// backs store-internal maintenance helpers (admin-equivalent scans).
func (v *View) scanAll(fn func(*QueryRecord) bool) {
	v.ScanAfter(0, Principal{Admin: true}, fn)
}

// Records collects the visible records in ID order, without cloning. The
// returned records are shared and must be treated as read-only.
func (v *View) Records(p Principal) []*QueryRecord {
	out := make([]*QueryRecord, 0, v.count)
	v.Scan(p, func(rec *QueryRecord) bool {
		out = append(out, rec)
		return true
	})
	return out
}

// ScanByTable visits, in ID order, the visible queries whose FROM clause
// references the table (case-insensitive): a merge of the IDs of the shapes
// that reference it. A record whose text was replaced since the shapes were
// captured is skipped, so every visited record still references the table.
func (v *View) ScanByTable(table string, p Principal, fn func(*QueryRecord) bool) {
	ix := &v.store.index
	ix.mu.RLock()
	h := streamsOf(ix.byTable[strings.ToLower(table)])
	ix.mu.RUnlock()
	h.init(0, v.limit)
	for len(h) > 0 {
		id, sh := h.pop()
		rec, ok := v.store.loadRecord(id)
		if !ok || rec.QueryShape != sh || !rec.VisibleTo(p) {
			continue
		}
		if !fn(rec) {
			return
		}
	}
}

// indexUser returns the ascending IDs of a user's records, a copy-on-write
// bucket the caller may iterate lock-free.
func (s *Store) indexUser(user string) []QueryID {
	s.index.mu.RLock()
	defer s.index.mu.RUnlock()
	return s.index.byUser[user]
}
