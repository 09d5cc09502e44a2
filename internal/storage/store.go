package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel errors.
var (
	// ErrNotFound is returned when a query ID does not exist.
	ErrNotFound = errors.New("storage: query not found")
	// ErrAccessDenied is returned when the principal may not see or modify a
	// query.
	ErrAccessDenied = errors.New("storage: access denied")
	// ErrReadOnly is returned by live mutating operations while the store is
	// in read-only (replica) mode. Apply — the replication/recovery replay
	// entry point — is exempt: it is how a read-only store advances.
	ErrReadOnly = errors.New("storage: store is read-only")
	// ErrNotDurable is returned by a live mutating operation whose mutation
	// was applied in memory — readers and subscribers see it — but whose log
	// append or covering fsync failed: a crash may lose it. It wraps nothing;
	// the cause is in the message and in the WAL manager's Err.
	ErrNotDurable = errors.New("storage: mutation applied but not durable")
)

// MaxQueryID is the highest ID a record may carry. The store refuses a put
// beyond it, live or replayed, and the codec refuses to decode one, so no ID
// can grow the record table's directory past MaxQueryID>>leafBits+1 leaf
// pointers (8 MiB).
const MaxQueryID QueryID = 1<<32 - 1

// validID reports whether a record may carry id: 1 through MaxQueryID.
func validID(id QueryID) bool { return id >= 1 && id <= MaxQueryID }

const (
	leafBits = 12
	leafSize = 1 << leafBits
)

// leaf is one fixed-size block of the record table: slot id%leafSize holds
// the current version of record id, or nil when there is none. Stored records
// are immutable: every mutation replaces the slot's pointer with an updated
// copy (copy-on-write), so a reader holding a record can never observe a
// half-applied mutation and scans never need defensive deep copies.
type leaf [leafSize]atomic.Pointer[QueryRecord]

// Store is the Query Storage component. It is safe for concurrent use.
//
// Concurrency design: records live in one table indexed by QueryID and are
// immutable once stored. Writers serialise on commitMu, mutate by swapping
// one record pointer in its table slot and updating the derived indexes;
// readers take no lock: they take a Snapshot and iterate without cloning, so
// read throughput scales with cores instead of serialising on one store-wide
// mutex while deep-copying the log.
type Store struct {
	// commitMu serialises every mutation (live operations and WAL replay).
	// It establishes the total mutation order the event bus fans out, and
	// lets a snapshot capture see a state no mutation can slip into. Readers
	// never take it.
	commitMu sync.Mutex
	// log is the bus's log slot (SetLog): appended to first, live mutations
	// only, and waited on after commitMu is released, so one batch's fsync
	// wait never blocks the next batch from sequencing. walSeq is the last
	// sequence it assigned: a write that changed nothing waits on it too.
	// subs are the derived-state subscribers (Subscribe): notified after the
	// log, for live and replayed mutations alike. All guarded by commitMu.
	log       Log
	walSeq    uint64
	subs      []busSubscriber
	nextSubID int

	// metrics holds the store's instruments: all nil, and so inert, until
	// EnableMetrics registers them. commitLockedAt is the commit-lock
	// acquisition stamp lockCommit records so unlockCommit can observe the
	// hold time. Both guarded by commitMu.
	metrics        storeMetrics
	commitLockedAt time.Time

	// nextID is the ID high-water mark. Written only under commitMu; read
	// atomically by Snapshot, which uses it to exclude records inserted
	// after the snapshot from indexed scans.
	nextID atomic.Int64

	count atomic.Int64

	// readOnly, when set, makes every live mutating method refuse with
	// ErrReadOnly. The replay path (Apply, RestoreState*) keeps working: a
	// follower's store only advances by replaying the primary's mutations.
	readOnly atomic.Bool

	// records is the record table: a directory of leaves, leaf id>>leafBits
	// holding record id (nil where no record ever had an ID in its range).
	// The directory is copy-on-write — a writer, under commitMu, publishes
	// a longer copy or one with a new leaf — and leaves never move, so a
	// read is two atomic loads: the directory, then the slot.
	records atomic.Pointer[[]*leaf]

	// index holds every secondary index — the shape dictionary with its
	// trigram and by-table postings, and the by-user and annotated record
	// postings — under its own lock, so a record's shape is resolved before
	// the record is published and readers never take commitMu.
	index index
}

// NewStore returns an empty query store.
func NewStore() *Store {
	s := &Store{}
	s.records.Store(new([]*leaf))
	s.index.reset()
	return s
}

// slot returns the table slot of id in dir, or nil when no leaf covers it.
func slot(dir []*leaf, id QueryID) *atomic.Pointer[QueryRecord] {
	if i := uint64(id) >> leafBits; i < uint64(len(dir)) && dir[i] != nil {
		return &dir[i][id&(leafSize-1)]
	}
	return nil
}

// loadRecord returns the current immutable version of a record.
func (s *Store) loadRecord(id QueryID) (*QueryRecord, bool) {
	if sl := slot(*s.records.Load(), id); sl != nil {
		rec := sl.Load()
		return rec, rec != nil
	}
	return nil, false
}

// storeRecord publishes a (new or updated) immutable record version, first
// publishing a directory that holds its leaf when the current one does not.
// Callers must hold the commit lock and have checked the ID with validID.
func (s *Store) storeRecord(rec *QueryRecord) {
	dir := *s.records.Load()
	if i := int(rec.ID >> leafBits); i >= len(dir) || dir[i] == nil {
		grown := make([]*leaf, max(len(dir), i+1))
		copy(grown, dir)
		grown[i] = new(leaf)
		s.records.Store(&grown)
		dir = grown
	}
	slot(dir, rec.ID).Store(rec)
}

// deleteRecord empties the slot of a stored record. Callers must hold the
// commit lock.
func (s *Store) deleteRecord(id QueryID) {
	slot(*s.records.Load(), id).Store(nil)
}

// SetReadOnly toggles read-only (replica) mode. While set, live mutating
// methods refuse with ErrReadOnly; Apply and state restoration keep working
// so replication can advance the store.
func (s *Store) SetReadOnly(ro bool) { s.readOnly.Store(ro) }

// ReadOnly reports whether the store refuses live mutations.
func (s *Store) ReadOnly() bool { return s.readOnly.Load() }

// Put inserts a record and returns the ID it was assigned. The record's
// IssuedAt is set to the current time if zero. Put takes ownership of the
// record, its shape and its sample: the caller must not mutate any of them
// afterwards, because readers receive them without cloning, and the record
// may come to point at the store's equal shape or sample instead of its own. A refused record
// (ErrReadOnly, ErrTooLarge, or one that would need an ID past MaxQueryID) is
// not stored and gets no ID; ErrNotDurable comes with the ID of a record that
// is stored in memory but may not survive a crash.
func (s *Store) Put(rec *QueryRecord) (QueryID, error) {
	recs, ids := [1]*QueryRecord{rec}, [1]QueryID{}
	if errs := s.put(recs[:], ids[:]); errs != nil {
		return ids[0], errs[0]
	}
	return ids[0], nil
}

// PutBatch is Put for many records under a single commit-lock acquisition:
// consecutive IDs in slice order, one contiguous run of WAL appends and one
// durability wait. errs is nil when every record was stored; otherwise
// errs[i] is what Put would have returned for recs[i], and a refused record
// does not keep the rest of the batch out.
func (s *Store) PutBatch(recs []*QueryRecord) (ids []QueryID, errs []error) {
	if len(recs) == 0 {
		return nil, nil
	}
	ids = make([]QueryID, len(recs))
	return ids, s.put(recs, ids)
}

// put is the one insert body: gate, admit each record as the OpPut mutation
// it will be logged as, point it at the store's equal shape (or prepare its
// own) outside the lock, then under one lock hold assign IDs and insert every
// admitted record, emit every one of them (subscribers see a batch once the
// whole batch is in the store), and wait once for the durability of the last.
// It fills ids and returns nil, or one error slot per record.
func (s *Store) put(recs []*QueryRecord, ids []QueryID) (errs []error) {
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(recs))
		}
		errs[i] = err
	}
	stored := func(i int) bool { return errs == nil || errs[i] == nil }
	admitted := 0
	for i, rec := range recs {
		if s.readOnly.Load() {
			fail(i, ErrReadOnly)
		} else if err := admitMutation(&Mutation{Op: OpPut, Record: rec}); err != nil {
			fail(i, err)
		} else {
			s.share(rec)
			admitted++
		}
	}
	if admitted == 0 {
		return errs // nothing to commit: a refusal never takes the lock
	}
	// One mutation per record, allocated together: interning decides which
	// of them define their shape, and the bus sees them once all are in.
	muts := make([]Mutation, len(recs))
	s.lockCommit()
	for i, rec := range recs {
		if !stored(i) {
			continue
		}
		if s.nextID.Load() >= int64(MaxQueryID) {
			fail(i, fmt.Errorf("storage: query IDs exhausted (the highest is %d)", MaxQueryID))
			continue
		}
		rec.ID = QueryID(s.nextID.Load() + 1)
		if rec.IssuedAt.IsZero() {
			rec.IssuedAt = time.Now()
		}
		// New records start valid unless the producer already marked them
		// invalid (raw-captured parse failures carry their reason in).
		rec.Valid = rec.InvalidReason == ""
		// Stored records are immutable, so the bus references the record
		// itself.
		muts[i] = Mutation{Op: OpPut, Record: rec, next: rec}
		_, muts[i].entered = s.insert(rec)
		ids[i] = rec.ID
	}
	var logErr error
	for i := range recs {
		if !stored(i) {
			continue
		}
		if err := s.emit(&muts[i], false); err != nil && logErr == nil {
			logErr = err
		}
	}
	if err := s.commitAndWait(s.walSeq, logErr); err != nil {
		// One wait covers the batch, so its failure is every stored record's.
		for i := range recs {
			if stored(i) {
				fail(i, err)
			}
		}
	}
	return errs
}

// insertSorted adds an ID to a copy-on-write bucket, preserving the
// ascending-ID invariant the scans' posting merge binary-searches on. Fresh
// inserts always carry the highest ID so the in-place append fast path
// applies; re-indexing an existing record (the ReplaceText repair path)
// rebuilds the bucket sorted, building a fresh slice like removal does so
// concurrent readers holding the old header stay consistent.
func insertSorted(old []QueryID, id QueryID) []QueryID {
	if n := len(old); n == 0 || old[n-1] < id {
		return append(old, id)
	}
	i := sort.Search(len(old), func(i int) bool { return old[i] >= id })
	if i < len(old) && old[i] == id {
		return old // already indexed
	}
	out := make([]QueryID, 0, len(old)+1)
	out = append(out, old[:i]...)
	out = append(out, id)
	out = append(out, old[i:]...)
	return out
}

// Get returns a copy of the record with the given ID, enforcing visibility
// for the principal. Use View.Get for the zero-clone variant.
func (s *Store) Get(id QueryID, p Principal) (*QueryRecord, error) {
	rec, err := s.Snapshot().Get(id, p)
	if err != nil {
		return nil, err
	}
	return rec.Clone(), nil
}

// Count returns the total number of stored queries (regardless of
// visibility).
func (s *Store) Count() int {
	return int(s.count.Load())
}

// DistinctCounts returns how many distinct users have logged queries and how
// many distinct tables (case-insensitively) the log references, regardless of
// visibility.
func (s *Store) DistinctCounts() (users, tables int) {
	s.index.mu.RLock()
	defer s.index.mu.RUnlock()
	return len(s.index.byUser), len(s.index.byTable)
}

// TableCount pairs a table name with how many queries reference it. The
// recommender uses these as global popularity priors.
type TableCount struct {
	Table string
	Count int
}

// PickDisplayName picks a deterministic display casing from live
// casing-reference counts: the casing with the most references, ties broken
// lexicographically, falling back when no casing is live.
func PickDisplayName(names map[string]int, fallback string) string {
	best, bestN := fallback, 0
	for name, n := range names {
		if n > bestN || (n == bestN && name < best) {
			best, bestN = name, n
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Mutations: annotations, visibility, maintenance state, deletion
// ---------------------------------------------------------------------------

// commit is the one body of every live mutation but a put: read-only gate,
// admission, commit lock, authorize (when given: it is handed the current
// version of record m.ID and may refuse, or fill in a default that needs the
// lock), apply, emit, unlock, durability wait. A mutation that changes nothing
// — apply says so — is neither emitted nor logged, but it waits on the last
// logged write like any other: the change it finds made may not be durable.
func (s *Store) commit(m *Mutation, authorize func(rec *QueryRecord) error) error {
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	if err := admitMutation(m); err != nil {
		return err
	}
	s.lockCommit()
	var (
		changed bool
		err     error
	)
	if authorize != nil {
		rec, lerr := s.lookup(m.ID)
		if err = lerr; err == nil {
			err = authorize(rec)
		}
	}
	if err == nil {
		changed, err = s.apply(m)
	}
	if err != nil {
		s.unlockCommit()
		return err
	}
	var logErr error
	if changed {
		logErr = s.emit(m, false) // advances s.walSeq
	}
	return s.commitAndWait(s.walSeq, logErr)
}

// ownerOnly is the authorization of the administrative operations (User
// Administrative Interaction Mode): the record's owner or an admin.
func ownerOnly(p Principal, what string) func(*QueryRecord) error {
	return func(rec *QueryRecord) error {
		if rec.User != p.User && !p.Admin {
			return fmt.Errorf("%w: only the owner may %s query %d", ErrAccessDenied, what, rec.ID)
		}
		return nil
	}
}

// Annotate appends an annotation to the query. Only the owner, a member of
// the owning group, or an admin may annotate.
func (s *Store) Annotate(id QueryID, p Principal, ann Annotation) error {
	if ann.Author == "" {
		ann.Author = p.User
	}
	return s.commit(&Mutation{Op: OpAnnotate, ID: id, Annotation: &ann}, func(rec *QueryRecord) error {
		if !rec.VisibleTo(p) {
			return fmt.Errorf("%w: query %d", ErrAccessDenied, id)
		}
		if ann.At.IsZero() {
			ann.At = time.Now()
		}
		return nil
	})
}

// SetVisibility changes who can see the query. Only the owner or an admin
// may change visibility.
func (s *Store) SetVisibility(id QueryID, p Principal, v Visibility) error {
	return s.commit(&Mutation{Op: OpSetVisibility, ID: id, Visibility: v}, ownerOnly(p, "change visibility of"))
}

// Delete removes a query from the store. Only the owner or an admin may
// delete (§2.4 "Users will need the ability to delete old queries").
func (s *Store) Delete(id QueryID, p Principal) error {
	return s.commit(&Mutation{Op: OpDelete, ID: id}, ownerOnly(p, "delete"))
}

// removeFromBucket removes one element from a copy-on-write index bucket and
// deletes the key once the bucket empties, so removals do not leak empty
// slices and stale map keys. A bucket not containing the element is left
// untouched.
func removeFromBucket[K, E comparable](m map[K][]E, key K, elem E) {
	if out := removeElem(m[key], elem); len(out) == 0 {
		delete(m, key)
	} else {
		m[key] = out
	}
}

// removeElem returns a copy-on-write bucket without elem: the bucket itself
// when it does not hold elem, a fresh slice otherwise, so concurrent readers
// holding the old header stay consistent.
func removeElem[E comparable](old []E, elem E) []E {
	found := false
	for _, x := range old {
		if x == elem {
			found = true
			break
		}
	}
	if !found {
		return old
	}
	out := make([]E, 0, len(old)-1)
	for _, x := range old {
		if x != elem {
			out = append(out, x)
		}
	}
	return out
}

// MarkInvalid flags a query as invalidated (e.g. by a schema change) with a
// reason. Used by the Query Maintenance component.
func (s *Store) MarkInvalid(id QueryID, reason string) error {
	return s.commit(&Mutation{Op: OpMarkInvalid, ID: id, Reason: reason}, nil)
}

// MarkValid clears the invalid flag (after a successful automatic repair).
func (s *Store) MarkValid(id QueryID) error {
	return s.commit(&Mutation{Op: OpMarkValid, ID: id}, nil)
}

// MarkStatsStale flags the runtime statistics of a query as outdated.
func (s *Store) MarkStatsStale(id QueryID, stale bool) error {
	return s.commit(&Mutation{Op: OpMarkStale, ID: id, Stale: stale}, nil)
}

// UpdateStats replaces a query's runtime statistics (e.g. after the
// maintenance component re-executes it) and clears the stale flag.
func (s *Store) UpdateStats(id QueryID, stats RuntimeStats) error {
	return s.commit(&Mutation{Op: OpUpdateStats, ID: id, Stats: &stats}, nil)
}

// ReplaceText rewrites the query text and canonical forms, used by the
// maintenance component's automatic repair. Features must be re-extracted by
// the caller and passed in. Only the shape of updated is taken — the record
// keeps every field of its own — and only the shape is logged. ReplaceText
// takes ownership of that shape.
func (s *Store) ReplaceText(id QueryID, updated *QueryRecord) error {
	m := &Mutation{Op: OpReplaceText, ID: id}
	if updated != nil {
		m.Record = &QueryRecord{ID: id, QueryShape: updated.QueryShape}
	}
	return s.commit(m, nil)
}

// InvalidQueries returns the IDs of all queries currently flagged invalid.
func (s *Store) InvalidQueries() []QueryID {
	var out []QueryID
	s.Snapshot().scanAll(func(rec *QueryRecord) bool {
		if !rec.Valid {
			out = append(out, rec.ID)
		}
		return true
	})
	return out
}

// StaleQueries returns the IDs of all queries whose statistics are stale.
func (s *Store) StaleQueries() []QueryID {
	var out []QueryID
	s.Snapshot().scanAll(func(rec *QueryRecord) bool {
		if rec.StatsStale {
			out = append(out, rec.ID)
		}
		return true
	})
	return out
}
