package storage

import (
	"errors"
	"fmt"
	"sort"
	"strings"
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
)

const (
	shardBits = 5
	// shardCount is the number of lock stripes the record map is spread
	// over. Concurrent readers and writers on different records only contend
	// when their QueryIDs hash to the same stripe.
	shardCount = 1 << shardBits
)

// shard is one lock stripe of the record map. Records inside a shard are
// immutable: every mutation replaces the record pointer with an updated copy
// (copy-on-write), so a reader holding a record can never observe a
// half-applied mutation and scans never need defensive deep copies.
type shard struct {
	mu   sync.RWMutex
	recs map[QueryID]*QueryRecord
}

// Store is the Query Storage component. It is safe for concurrent use.
//
// Concurrency design: records live in lock-striped shards (hashed by
// QueryID) and are immutable once stored. Writers serialise on commitMu,
// mutate by swapping one record pointer inside one shard and updating the
// derived indexes; readers take a Snapshot and iterate without cloning, so
// read throughput scales with cores instead of serialising on one store-wide
// mutex while deep-copying the log.
type Store struct {
	// commitMu serialises every mutation (live operations and WAL replay).
	// It establishes the total mutation order the event bus fans out, and
	// lets a snapshot capture see a state no mutation can slip into. Readers
	// never take it.
	commitMu sync.Mutex
	// hook is the bus's WAL slot (SetMutationHook): notified first, live
	// mutations only. subs are the derived-state subscribers (Subscribe):
	// notified after it, for live and replayed mutations alike. All guarded
	// by commitMu.
	hook      MutationHook
	subs      []busSubscriber
	nextSubID int
	now       func() time.Time // guarded by commitMu

	// durable is the bus's durability-wait slot (SetDurabilityWaiter):
	// mutating methods call it with their highest WAL sequence after
	// releasing commitMu, so one batch's fsync wait never blocks the next
	// batch from sequencing. Guarded by commitMu.
	durable func(seq uint64)

	// metrics, when non-nil, holds the store's instruments (EnableMetrics).
	// commitLockedAt is the commit-lock acquisition stamp lockCommit records
	// so unlockCommit can observe the hold time. Both guarded by commitMu.
	metrics        *storeMetrics
	commitLockedAt time.Time

	// nextID is the ID high-water mark. Written only under commitMu; read
	// atomically by Snapshot, which uses it to exclude records inserted
	// after the snapshot from indexed scans.
	nextID atomic.Int64

	// edgeSet mirrors the edge relation for O(1) duplicate checks; only
	// mutation paths touch it, so commitMu guards it.
	edgeSet map[SessionEdge]struct{}

	count atomic.Int64

	// readOnly, when set, makes every live mutating method refuse with
	// ErrReadOnly. The replay path (Apply, RestoreState*) keeps working: a
	// follower's store only advances by replaying the primary's mutations.
	readOnly atomic.Bool

	shards [shardCount]shard

	// text is the search index behind keyword and substring search: the
	// dictionary of distinct texts and its trigram map. It has its own lock
	// so a record's entry is resolved before the record is published.
	text textIndex

	// idx guards the derived read structures: insertion order, the inverted
	// indexes and the session edge relation. Every slice reachable from idx
	// is copy-on-write: writers append in place (readers only look at
	// indexes below their captured length) and build a fresh slice on
	// removal, so a reader may capture a slice header under RLock and keep
	// iterating it after releasing the lock.
	idx struct {
		sync.RWMutex
		order         []QueryID
		byTable       map[string][]QueryID // lower-cased table name
		byAttribute   map[string][]QueryID // lower-cased "rel.attr"
		byUser        map[string][]QueryID
		byFingerprint map[uint64][]QueryID
		bySession     map[int64][]QueryID

		// tableNames counts the live display casings per lower-cased table
		// key, so TableCounts can report a real name without scanning the
		// log for one.
		tableNames map[string]map[string]int

		edges []SessionEdge
		// edgesFrom indexes the edge relation by source query so EdgesFrom
		// is O(degree) instead of O(E).
		edgesFrom map[QueryID][]SessionEdge
	}
}

// NewStore returns an empty query store.
func NewStore() *Store {
	s := &Store{
		edgeSet: make(map[SessionEdge]struct{}),
		now:     time.Now,
	}
	for i := range s.shards {
		s.shards[i].recs = make(map[QueryID]*QueryRecord)
	}
	s.text.reset()
	s.idx.byTable = make(map[string][]QueryID)
	s.idx.byAttribute = make(map[string][]QueryID)
	s.idx.byUser = make(map[string][]QueryID)
	s.idx.byFingerprint = make(map[uint64][]QueryID)
	s.idx.bySession = make(map[int64][]QueryID)
	s.idx.tableNames = make(map[string]map[string]int)
	s.idx.edgesFrom = make(map[QueryID][]SessionEdge)
	return s
}

// shardIndex maps a query ID onto the index of its lock stripe.
func shardIndex(id QueryID) int {
	return int((uint64(id) * 0x9e3779b97f4a7c15) >> (64 - shardBits))
}

// shardFor maps a query ID onto its lock stripe.
func (s *Store) shardFor(id QueryID) *shard {
	return &s.shards[shardIndex(id)]
}

// loadRecord returns the current immutable version of a record.
func (s *Store) loadRecord(id QueryID) (*QueryRecord, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	rec, ok := sh.recs[id]
	sh.mu.RUnlock()
	return rec, ok
}

// storeRecord publishes a (new or updated) immutable record version.
func (s *Store) storeRecord(rec *QueryRecord) {
	sh := s.shardFor(rec.ID)
	sh.mu.Lock()
	sh.recs[rec.ID] = rec
	sh.mu.Unlock()
}

// deleteRecord drops a record from its shard.
func (s *Store) deleteRecord(id QueryID) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	delete(sh.recs, id)
	sh.mu.Unlock()
}

// SetClock overrides the store's time source (used by tests and the workload
// generator).
func (s *Store) SetClock(now func() time.Time) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.now = now
}

// SetReadOnly toggles read-only (replica) mode. While set, live mutating
// methods refuse with ErrReadOnly; Apply and state restoration keep working
// so replication can advance the store.
func (s *Store) SetReadOnly(ro bool) { s.readOnly.Store(ro) }

// ReadOnly reports whether the store refuses live mutations.
func (s *Store) ReadOnly() bool { return s.readOnly.Load() }

// writable is the live-mutation gate: every mutating method that can report
// an error calls it before taking the commit lock. (Put and PutBatch have no
// error return; their callers gate on ReadOnly at the API layer.)
func (s *Store) writable() error {
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	return nil
}

// Put inserts a record and assigns it an ID. The record's IssuedAt is set to
// the current time if zero. Put returns the assigned ID. Put takes ownership
// of the record: the caller must not mutate it afterwards, because readers
// receive it without cloning. A record over MaxRecordBytes is not stored and
// Put returns 0, which is never a valid ID (see ErrTooLarge).
func (s *Store) Put(rec *QueryRecord) QueryID {
	if recordBound(rec) > MaxRecordBytes {
		return 0
	}
	// Index-key computation (lower-casing included) is pure per-record work;
	// doing it before taking the commit lock shrinks the critical section to
	// ID assignment, map inserts and the bus fan-out.
	keys := computeIndexKeys(rec)
	s.lockCommit()
	rec.ID = QueryID(s.nextID.Load() + 1)
	if rec.IssuedAt.IsZero() {
		rec.IssuedAt = s.now()
	}
	// New records start valid unless the producer already marked them invalid
	// (raw-captured parse failures carry their reason in).
	rec.Valid = rec.InvalidReason == ""
	replaced := s.insertPrepared(rec, keys)
	var seq uint64
	if s.observed() {
		// Stored records are immutable, so the bus can reference the record
		// directly without a defensive clone. A replaced record (impossible
		// today — Put always assigns a fresh ID — but load-bearing should an
		// ID-preserving put path ever appear) rides along as prev so
		// subscribers retract its contributions.
		m := &Mutation{Op: OpPut, Record: rec, prev: replaced, next: rec}
		s.emit(m)
		seq = m.walSeq
	}
	id := rec.ID
	s.commitAndWait(seq)
	return id
}

// PutBatch inserts many records under a single commit-lock acquisition,
// assigning consecutive IDs in slice order. It is the amortised write path
// behind the batch-submit API: one lock round trip, one contiguous run of
// WAL hook emissions and one durability wait instead of one per query. Like
// Put, it takes ownership of every record, and like Put it leaves a record
// over MaxRecordBytes out: that record's ID is 0, the rest of the batch is
// stored.
func (s *Store) PutBatch(recs []*QueryRecord) []QueryID {
	if len(recs) == 0 {
		return nil
	}
	for i, rec := range recs {
		if recordBound(rec) > MaxRecordBytes {
			return s.putBatchWithout(recs, i)
		}
	}
	keys := make([]indexKeys, len(recs))
	for i, rec := range recs {
		keys[i] = computeIndexKeys(rec)
	}
	ids := make([]QueryID, len(recs))
	s.lockCommit()
	// Consecutive fresh IDs above the high-water mark: no record in the
	// batch can replace an existing one, so the whole batch is published
	// with bulk shard stores and one idx critical section instead of a
	// lookup/insert round trip per record.
	base := s.nextID.Load()
	for i, rec := range recs {
		rec.ID = QueryID(base + int64(i) + 1)
		if rec.IssuedAt.IsZero() {
			rec.IssuedAt = s.now()
		}
		rec.Valid = rec.InvalidReason == ""
		ids[i] = rec.ID
	}
	s.text.mu.Lock()
	for i, rec := range recs {
		s.text.addLocked(rec, keys[i].text)
	}
	s.text.mu.Unlock()
	s.storeRecordsBatch(recs)
	s.idx.Lock()
	for i, rec := range recs {
		s.idx.order = append(s.idx.order, rec.ID)
		s.indexPreparedLocked(rec, keys[i])
	}
	s.idx.Unlock()
	s.nextID.Store(base + int64(len(recs)))
	s.count.Add(int64(len(recs)))
	var seq uint64
	if s.observed() {
		for _, rec := range recs {
			m := &Mutation{Op: OpPut, Record: rec, next: rec}
			s.emit(m)
			if m.walSeq != 0 {
				seq = m.walSeq
			}
		}
	}
	s.commitAndWait(seq)
	return ids
}

// putBatchWithout is PutBatch for a batch whose record at index first is over
// MaxRecordBytes: it stores the records that fit and reports 0 for the rest.
func (s *Store) putBatchWithout(recs []*QueryRecord, first int) []QueryID {
	ids := make([]QueryID, len(recs))
	fit := append(make([]*QueryRecord, 0, len(recs)-1), recs[:first]...)
	at := make([]int, first, len(recs)-1) // fit[j] is recs[at[j]]
	for i := range at {
		at[i] = i
	}
	for i := first + 1; i < len(recs); i++ {
		if recordBound(recs[i]) <= MaxRecordBytes {
			fit = append(fit, recs[i])
			at = append(at, i)
		}
	}
	for j, id := range s.PutBatch(fit) {
		ids[at[j]] = id
	}
	return ids
}

// parallelStoreThreshold is the batch size at which PutBatch fans shard-map
// inserts out to worker goroutines; below it the goroutine handoff costs
// more than the handful of map writes it would parallelise.
const parallelStoreThreshold = 64

// storeRecordsBatch publishes a batch of fresh records to their shards:
// serially for small batches, one goroutine per touched shard for large
// ones. Scans cannot observe a partial batch either way — records become
// visible only when the insertion order is published, after this returns.
// Callers must hold the commit lock.
func (s *Store) storeRecordsBatch(recs []*QueryRecord) {
	if len(recs) < parallelStoreThreshold {
		for _, rec := range recs {
			s.storeRecord(rec)
		}
		return
	}
	var groups [shardCount][]*QueryRecord
	for _, rec := range recs {
		i := shardIndex(rec.ID)
		groups[i] = append(groups[i], rec)
	}
	var wg sync.WaitGroup
	for i := range groups {
		g := groups[i]
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *shard, g []*QueryRecord) {
			defer wg.Done()
			sh.mu.Lock()
			for _, rec := range g {
				sh.recs[rec.ID] = rec
			}
			sh.mu.Unlock()
		}(&s.shards[i], g)
	}
	wg.Wait()
}

// insertIntoBucket adds an ID to a copy-on-write index bucket; see
// insertSorted for the invariant it keeps.
func insertIntoBucket[K comparable](m map[K][]QueryID, key K, id QueryID) {
	m[key] = insertSorted(m[key], id)
}

// insertSorted adds an ID to a copy-on-write bucket, preserving the
// ascending-ID invariant that the cursor scans (ScanAfter, ScanByUserAfter)
// and the search merge binary-search on. Fresh inserts always carry the
// highest ID so the in-place append fast path applies; re-indexing an
// existing record (the ReplaceText repair path) rebuilds the bucket sorted,
// building a fresh slice like removal does so concurrent readers holding the
// old header stay consistent.
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

// indexKeys holds the lower-cased inverted-index keys of one record,
// precomputed outside the commit lock so indexing under the lock is pure map
// work.
type indexKeys struct {
	tables []string // parallel to rec.Tables
	attrs  []string // deduplicated "rel.attr" keys
	text   textKey  // the record's search-dictionary entry
}

// computeIndexKeys derives a record's index keys. It is pure per-record
// work: live write paths call it before taking the commit lock.
func computeIndexKeys(rec *QueryRecord) indexKeys {
	k := indexKeys{text: textKey{strings.ToLower(rec.Text), strings.ToLower(rec.Canonical)}}
	if len(rec.Tables) > 0 {
		k.tables = make([]string, len(rec.Tables))
		for i, t := range rec.Tables {
			k.tables[i] = strings.ToLower(t)
		}
	}
	if len(rec.Attributes) > 0 {
		k.attrs = make([]string, 0, len(rec.Attributes))
		for _, a := range rec.Attributes {
			key := strings.ToLower(a.Rel + "." + a.Attr)
			dup := false
			for _, seen := range k.attrs {
				if seen == key {
					dup = true
					break
				}
			}
			if !dup {
				k.attrs = append(k.attrs, key)
			}
		}
	}
	return k
}

// indexPreparedLocked adds a record to every inverted index using keys
// computed by computeIndexKeys. Callers must hold the idx write lock.
func (s *Store) indexPreparedLocked(rec *QueryRecord, keys indexKeys) {
	for i, t := range rec.Tables {
		key := keys.tables[i]
		insertIntoBucket(s.idx.byTable, key, rec.ID)
		names := s.idx.tableNames[key]
		if names == nil {
			names = make(map[string]int, 1)
			s.idx.tableNames[key] = names
		}
		names[t]++
	}
	for _, key := range keys.attrs {
		insertIntoBucket(s.idx.byAttribute, key, rec.ID)
	}
	insertIntoBucket(s.idx.byUser, rec.User, rec.ID)
	insertIntoBucket(s.idx.byFingerprint, rec.Fingerprint, rec.ID)
	if rec.SessionID != 0 {
		insertIntoBucket(s.idx.bySession, rec.SessionID, rec.ID)
	}
}

// Get returns a copy of the record with the given ID, enforcing visibility
// for the principal. Use View.Get for the zero-clone variant.
func (s *Store) Get(id QueryID, p Principal) (*QueryRecord, error) {
	rec, ok := s.loadRecord(id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	if !rec.VisibleTo(p) {
		return nil, fmt.Errorf("%w: query %d", ErrAccessDenied, id)
	}
	return rec.Clone(), nil
}

// Count returns the total number of stored queries (regardless of
// visibility).
func (s *Store) Count() int {
	return int(s.count.Load())
}

// SessionIDs returns all session identifiers persisted on stored records
// (the mining pass writes them via AssignSession), sorted. This is the
// storage-layer view used to verify replay/restore equality in tests; the
// live session count — current without a mining pass — comes from the
// session detector, not from here.
func (s *Store) SessionIDs() []int64 {
	s.idx.RLock()
	out := make([]int64, 0, len(s.idx.bySession))
	for id := range s.idx.bySession {
		out = append(out, id)
	}
	s.idx.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Users returns the distinct users that have logged queries, sorted.
func (s *Store) Users() []string {
	s.idx.RLock()
	out := make([]string, 0, len(s.idx.byUser))
	for u := range s.idx.byUser {
		out = append(out, u)
	}
	s.idx.RUnlock()
	sort.Strings(out)
	return out
}

// TableCount pairs a table name with how many queries reference it. The
// recommender uses these as global popularity priors.
type TableCount struct {
	Table string
	Count int
}

// TableCounts returns per-table reference counts, sorted by descending count
// then name. It is served entirely from incrementally maintained counters —
// the index bucket sizes and the live display-casing counts — so its cost is
// O(distinct tables) regardless of log size.
func (s *Store) TableCounts() []TableCount {
	s.idx.RLock()
	out := make([]TableCount, 0, len(s.idx.byTable))
	for key, ids := range s.idx.byTable {
		out = append(out, TableCount{Table: s.displayNameLocked(key), Count: len(ids)})
	}
	s.idx.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Table < out[j].Table
	})
	return out
}

// displayNameLocked picks the display casing for a table key. Callers must
// hold the idx lock (read or write).
func (s *Store) displayNameLocked(key string) string {
	return PickDisplayName(s.idx.tableNames[key], key)
}

// PickDisplayName picks a deterministic display casing from live
// casing-reference counts: the casing with the most references, ties broken
// lexicographically, falling back when no casing is live. Shared by
// TableCounts and the stats subsystem so both report the same name.
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
// Mutations: annotations, sessions, maintenance state, deletion
// ---------------------------------------------------------------------------

// Annotate appends an annotation to the query. Only the owner, a member of
// the owning group, or an admin may annotate.
func (s *Store) Annotate(id QueryID, p Principal, ann Annotation) error {
	if err := s.writable(); err != nil {
		return err
	}
	if ann.Author == "" {
		ann.Author = p.User
	}
	m := &Mutation{Op: OpAnnotate, ID: id, Annotation: &ann}
	if err := admitMutation(m); err != nil {
		return err
	}
	s.lockCommit()
	rec, err := s.lookup(id)
	if err != nil {
		s.unlockCommit()
		return err
	}
	if !rec.VisibleTo(p) {
		s.unlockCommit()
		return fmt.Errorf("%w: query %d", ErrAccessDenied, id)
	}
	if ann.At.IsZero() {
		ann.At = s.now()
	}
	if err := s.apply(m); err != nil {
		s.unlockCommit()
		return err
	}
	s.emit(m)
	s.commitAndWait(m.walSeq)
	return nil
}

// SetVisibility changes who can see the query. Only the owner or an admin
// may change visibility (User Administrative Interaction Mode).
func (s *Store) SetVisibility(id QueryID, p Principal, v Visibility) error {
	if err := s.writable(); err != nil {
		return err
	}
	s.lockCommit()
	rec, err := s.lookup(id)
	if err != nil {
		s.unlockCommit()
		return err
	}
	if rec.User != p.User && !p.Admin {
		s.unlockCommit()
		return fmt.Errorf("%w: only the owner may change visibility of query %d", ErrAccessDenied, id)
	}
	m := &Mutation{Op: OpSetVisibility, ID: id, Visibility: v}
	if err := s.apply(m); err != nil {
		s.unlockCommit()
		return err
	}
	s.emit(m)
	s.commitAndWait(m.walSeq)
	return nil
}

// Delete removes a query from the store. Only the owner or an admin may
// delete (§2.4 "Users will need the ability to delete old queries").
func (s *Store) Delete(id QueryID, p Principal) error {
	if err := s.writable(); err != nil {
		return err
	}
	s.lockCommit()
	rec, err := s.lookup(id)
	if err != nil {
		s.unlockCommit()
		return err
	}
	if rec.User != p.User && !p.Admin {
		s.unlockCommit()
		return fmt.Errorf("%w: only the owner may delete query %d", ErrAccessDenied, id)
	}
	m := &Mutation{Op: OpDelete, ID: id}
	if err := s.apply(m); err != nil {
		s.unlockCommit()
		return err
	}
	s.emit(m)
	s.commitAndWait(m.walSeq)
	return nil
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

// removeFromIndexesLocked strips a record from every inverted index. Callers
// must hold commitMu and the idx write lock.
func (s *Store) removeFromIndexesLocked(rec *QueryRecord) {
	for _, t := range rec.Tables {
		key := strings.ToLower(t)
		removeFromBucket(s.idx.byTable, key, rec.ID)
		if names := s.idx.tableNames[key]; names != nil {
			if names[t] <= 1 {
				delete(names, t)
				if len(names) == 0 {
					delete(s.idx.tableNames, key)
				}
			} else {
				names[t]--
			}
		}
	}
	for _, a := range rec.Attributes {
		removeFromBucket(s.idx.byAttribute, strings.ToLower(a.Rel+"."+a.Attr), rec.ID)
	}
	removeFromBucket(s.idx.byUser, rec.User, rec.ID)
	removeFromBucket(s.idx.byFingerprint, rec.Fingerprint, rec.ID)
	if rec.SessionID != 0 {
		removeFromBucket(s.idx.bySession, rec.SessionID, rec.ID)
	}
}

// removeEdgesLocked drops every session edge touching the record, from the
// edge relation, the duplicate set and the by-source index. Callers must hold
// commitMu and the idx write lock.
func (s *Store) removeEdgesLocked(rec *QueryRecord) {
	var removed []SessionEdge
	for _, e := range s.idx.edges {
		if e.From == rec.ID || e.To == rec.ID {
			removed = append(removed, e)
		}
	}
	if len(removed) == 0 {
		return
	}
	kept := make([]SessionEdge, 0, len(s.idx.edges)-len(removed))
	for _, e := range s.idx.edges {
		if e.From != rec.ID && e.To != rec.ID {
			kept = append(kept, e)
		}
	}
	s.idx.edges = kept
	for _, e := range removed {
		delete(s.edgeSet, e)
		removeFromBucket(s.idx.edgesFrom, e.From, e)
	}
}

// AssignSession records the session a query belongs to (set by the miner's
// session detector). Re-assigning the same session is a no-op so the periodic
// mining pass does not flood the mutation log.
func (s *Store) AssignSession(id QueryID, sessionID int64) error {
	if err := s.writable(); err != nil {
		return err
	}
	s.lockCommit()
	rec, err := s.lookup(id)
	if err != nil {
		s.unlockCommit()
		return err
	}
	if rec.SessionID == sessionID {
		s.unlockCommit()
		return nil
	}
	m := &Mutation{Op: OpAssignSession, ID: id, SessionID: sessionID}
	if err := s.apply(m); err != nil {
		s.unlockCommit()
		return err
	}
	s.emit(m)
	s.commitAndWait(m.walSeq)
	return nil
}

// AddEdge records a session edge between two logged queries. An edge that
// already exists is a no-op: the session detector re-derives the full edge
// set on every mining pass.
func (s *Store) AddEdge(edge SessionEdge) error {
	if err := s.writable(); err != nil {
		return err
	}
	m := &Mutation{Op: OpAddEdge, Edge: &edge}
	if err := admitMutation(m); err != nil {
		return err
	}
	s.lockCommit()
	if _, dup := s.edgeSet[edge]; dup {
		s.unlockCommit()
		return nil
	}
	if err := s.apply(m); err != nil {
		s.unlockCommit()
		return err
	}
	s.emit(m)
	s.commitAndWait(m.walSeq)
	return nil
}

// Edges returns a copy of the session edge relation.
func (s *Store) Edges() []SessionEdge {
	s.idx.RLock()
	edges := s.idx.edges
	s.idx.RUnlock()
	return append([]SessionEdge(nil), edges...)
}

// EdgesFrom returns the edges leaving the given query, via the by-source
// index (O(degree) instead of a scan of the whole edge relation).
func (s *Store) EdgesFrom(id QueryID) []SessionEdge {
	s.idx.RLock()
	edges := s.idx.edgesFrom[id]
	s.idx.RUnlock()
	if len(edges) == 0 {
		return nil
	}
	return append([]SessionEdge(nil), edges...)
}

// MarkInvalid flags a query as invalidated (e.g. by a schema change) with a
// reason. Used by the Query Maintenance component.
func (s *Store) MarkInvalid(id QueryID, reason string) error {
	return s.mutate(&Mutation{Op: OpMarkInvalid, ID: id, Reason: reason})
}

// MarkValid clears the invalid flag (after a successful automatic repair).
func (s *Store) MarkValid(id QueryID) error {
	return s.mutate(&Mutation{Op: OpMarkValid, ID: id})
}

// MarkStatsStale flags the runtime statistics of a query as outdated.
func (s *Store) MarkStatsStale(id QueryID, stale bool) error {
	return s.mutate(&Mutation{Op: OpMarkStale, ID: id, Stale: stale})
}

// UpdateStats replaces a query's runtime statistics (e.g. after the
// maintenance component re-executes it) and clears the stale flag.
func (s *Store) UpdateStats(id QueryID, stats RuntimeStats) error {
	return s.mutate(&Mutation{Op: OpUpdateStats, ID: id, Stats: &stats})
}

// SetSample replaces a query's stored output sample, used when the
// maintenance component re-executes a query to refresh its statistics.
func (s *Store) SetSample(id QueryID, sample *OutputSample) error {
	return s.mutate(&Mutation{Op: OpSetSample, ID: id, Sample: sample})
}

// SetQuality records a quality score for the query (§4.4).
func (s *Store) SetQuality(id QueryID, score float64) error {
	return s.mutate(&Mutation{Op: OpSetQuality, ID: id, Score: score})
}

// ReplaceText rewrites the query text and canonical forms, used by the
// maintenance component's automatic repair. Features must be re-extracted by
// the caller and passed in. ReplaceText takes ownership of the updated
// record.
func (s *Store) ReplaceText(id QueryID, updated *QueryRecord) error {
	return s.mutate(&Mutation{Op: OpReplaceText, ID: id, Record: updated})
}

// mutate applies a mutation under the commit lock, emits it on success and
// waits for its durability outside the lock.
func (s *Store) mutate(m *Mutation) error {
	if err := s.writable(); err != nil {
		return err
	}
	if err := admitMutation(m); err != nil {
		return err
	}
	s.lockCommit()
	if err := s.apply(m); err != nil {
		s.unlockCommit()
		return err
	}
	s.emit(m)
	s.commitAndWait(m.walSeq)
	return nil
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
