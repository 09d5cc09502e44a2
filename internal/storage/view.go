package storage

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// View is a zero-clone read view over the store, created by Store.Snapshot.
//
// Consistency contract:
//
//   - Record-level atomicity: records are immutable; a scan observes each
//     record either entirely before or entirely after any mutation, never a
//     half-applied one.
//   - Membership: a scan visits queries whose IDs are at most the
//     high-water mark the snapshot was taken at, in ID (temporal) order —
//     queries inserted afterwards carry higher IDs and are not visited,
//     queries deleted afterwards are skipped.
//   - Freshness: record contents are resolved at read time, so a long-lived
//     view observes the latest committed version of each record (not the
//     version that was current at snapshot time).
//   - Every scan is one iterator (source.visit) over a source of IDs: the
//     record table (Scan, ScanAfter), a user's bucket (ScanByUserAfter), a
//     table's shapes (ScanByTable), the annotated list and a search
//     selection's shapes (TextSelection). Index postings are read when the
//     scan is called, restricted to the snapshot's membership; a record
//     whose shape changed since is skipped, so a by-table scan never visits
//     one re-texted off the table.
//   - Every scan decides visibility, counts the records it examined (those
//     the principal could not see included) and checks its context every
//     ScanCheckEvery of them in that one loop, and returns the count.
//
// Records handed to scan callbacks are shared and MUST NOT be mutated; use
// QueryRecord.Clone for an owned copy.
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

// ScanCheckEvery is how many records a scan examines between context
// checks: a power of two so the check compiles to a mask, small enough that
// a cancelled request stops a scan within microseconds.
const ScanCheckEvery = 64

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

// source yields the slots of one scan's record IDs in ascending order, a run
// at a time: when walk is set, the record table's slots in [id, last] a leaf
// a run, a leaf no record ever had an ID in costing one check; otherwise one
// ID a run, from a bucket's ids — a user's, or the annotated list — or from a
// merge of posting streams — a table's shapes, or a selection's.
type source struct {
	postingMerge
	ids []QueryID
	// skip holds the IDs the merge must not yield: a selection's annotated
	// records, which its caller verifies itself. The ones it keeps come back
	// in verified, ascending, and are handed to fn in ID order as they are,
	// neither loaded nor counted a second time.
	skip     []QueryID
	verified []*QueryRecord
	dir      []*leaf
	walk     bool
	id, last QueryID
}

// bucket is the source of the IDs of one ascending bucket in (after, high].
func (s *Store) bucket(ids []QueryID, after, high QueryID) source {
	return source{ids: narrow(ids, after, high), dir: *s.records.Load()}
}

// merged is the source of the IDs of streams in (after, high].
func (s *Store) merged(streams []postingStream, after, high QueryID) source {
	return source{postingMerge: mergeOf(streams, after, high), dir: *s.records.Load()}
}

// slots returns the table slots of IDs lo through hi, which one leaf covers,
// or nil when no leaf does.
func slots(dir []*leaf, lo, hi QueryID) []atomic.Pointer[QueryRecord] {
	if i := uint64(lo) >> leafBits; i < uint64(len(dir)) && dir[i] != nil {
		return dir[i][lo&(leafSize-1) : hi&(leafSize-1)+1]
	}
	return nil
}

// next returns the source's next run of slots and the shape their records
// must still have (nil: any), or the next verified record, or neither once
// the source is exhausted.
func (src *source) next() ([]atomic.Pointer[QueryRecord], *QueryShape, *QueryRecord) {
	for src.walk && src.id <= src.last {
		lo, hi := src.id, min(src.last, src.id|(leafSize-1))
		src.id = hi + 1
		if run := slots(src.dir, lo, hi); run != nil {
			return run, nil, nil
		}
	}
	for len(src.ids) > 0 {
		id := src.ids[0]
		src.ids = src.ids[1:]
		if run := slots(src.dir, id, id); run != nil {
			return run, nil, nil
		}
	}
	for {
		if v := src.verified; len(v) > 0 && (!src.more() || v[0].ID < src.heap[0].head) {
			src.verified = v[1:]
			return nil, nil, v[0]
		}
		if !src.more() {
			return nil, nil, nil
		}
		id, sh := src.pop()
		if len(src.skip) > 0 {
			if _, skipped := slices.BinarySearch(src.skip, id); skipped {
				continue
			}
		}
		if run := slots(src.dir, id, id); run != nil {
			return run, sh, nil
		}
	}
}

// visit is the one loop under every scan. For each ID the source yields it
// loads the record, skips one deleted since or whose shape changed since its
// shapes were captured, counts the rest as examined whether the principal may
// see them or not, stops soon after ctx is done, and hands the visible ones
// to fn until fn returns false; a verified record goes to fn as it is. It
// returns how many records it examined; callers inspect ctx.Err() to tell an
// aborted scan from an exhausted one.
func (src *source) visit(ctx context.Context, p Principal, fn func(*QueryRecord) bool) (examined int) {
	for {
		run, sh, verified := src.next()
		if verified != nil {
			if !fn(verified) {
				return examined
			}
			continue
		}
		if run == nil {
			return examined
		}
		for i := range run {
			rec := run[i].Load()
			if rec == nil || sh != nil && rec.QueryShape != sh {
				continue
			}
			if examined++; examined&(ScanCheckEvery-1) == 0 && ctx.Err() != nil {
				return examined
			}
			// p.Admin first spares an admin's walk — every rebuild and
			// snapshot — the copy of p the inlined VisibleTo makes per record.
			if (p.Admin || rec.VisibleTo(p)) && !fn(rec) {
				return examined
			}
		}
	}
}

// Scan visits every visible record in ID (temporal) order: ScanAfter from
// the start, with no context to stop it. Return false from fn to stop early.
func (v *View) Scan(p Principal, fn func(*QueryRecord) bool) int {
	return v.ScanAfter(context.TODO(), 0, p, fn)
}

// ScanAfter visits the visible records with IDs in (cursor, limit], in ID
// order, walking the record table. With a view pinned by SnapshotAt,
// repeated ScanAfter calls paginate the snapshot's membership without
// duplicates or gaps under concurrent inserts. It returns how many records it
// examined.
func (v *View) ScanAfter(ctx context.Context, cursor QueryID, p Principal, fn func(*QueryRecord) bool) int {
	dir := *v.store.records.Load()
	last := min(v.limit, QueryID(len(dir))<<leafBits-1)
	src := source{dir: dir, walk: true, id: min(max(cursor, 0), last) + 1, last: last}
	return src.visit(ctx, p, fn)
}

// ScanByUserAfter visits the visible queries submitted by the given user, in
// temporal order, resuming strictly after the given query ID: a walk of the
// user's bucket. It returns how many records it examined.
func (v *View) ScanByUserAfter(ctx context.Context, user string, cursor QueryID, p Principal, fn func(*QueryRecord) bool) int {
	ix := &v.store.index
	ix.mu.RLock()
	ids := ix.byUser[user]
	ix.mu.RUnlock()
	src := v.store.bucket(ids, cursor, v.limit)
	return src.visit(ctx, p, fn)
}

// scanAll visits every record in the snapshot regardless of visibility; it
// backs store-internal maintenance helpers (admin-equivalent scans).
func (v *View) scanAll(fn func(*QueryRecord) bool) {
	v.Scan(Principal{Admin: true}, fn)
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
// It returns how many records it examined.
func (v *View) ScanByTable(ctx context.Context, table string, p Principal, fn func(*QueryRecord) bool) int {
	ix := &v.store.index
	ix.mu.RLock()
	streams := streamsOf(ix.byTable[strings.ToLower(table)])
	ix.mu.RUnlock()
	src := v.store.merged(streams, 0, v.limit)
	return src.visit(ctx, p, fn)
}
