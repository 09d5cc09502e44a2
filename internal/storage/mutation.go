package storage

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// MutationOp names a mutating store operation. On disk an op is the one-byte
// code opCode assigns it (codec.go); the names are what logs, metrics and
// errors print.
type MutationOp string

// Mutation operations. Every mutating Store method has a corresponding op so
// that replaying a mutation stream rebuilds the store — records and all
// inverted indexes — exactly as the live operations built it.
//
// OpSessionAssignment and OpSessionEdge are what older builds logged when a
// mining pass copied the session detector's windows back into the store, and
// OpSetQuality what they logged when a maintenance pass stored each record's
// quality score (now computed on read: QueryRecord.Quality). No store method
// emits them any more; they stay decodable so those logs replay, and applying
// one changes nothing.
const (
	OpPut               MutationOp = "put"
	OpAnnotate          MutationOp = "annotate"
	OpSetVisibility     MutationOp = "visibility"
	OpDelete            MutationOp = "delete"
	OpSessionAssignment MutationOp = "assign-session"
	OpSessionEdge       MutationOp = "add-edge"
	OpMarkInvalid       MutationOp = "mark-invalid"
	OpMarkValid         MutationOp = "mark-valid"
	OpMarkStale         MutationOp = "mark-stale"
	OpUpdateStats       MutationOp = "update-stats"
	OpSetSample         MutationOp = "set-sample"
	OpSetQuality        MutationOp = "set-quality"
	OpReplaceText       MutationOp = "replace-text"
)

// Mutation is one typed write-ahead-log entry: the complete description of a
// single mutating Store operation, sufficient to replay it. Access control
// has already been enforced by the time a mutation is emitted, so replaying
// does not re-check principals. Encode and DecodeMutation (codec.go) are its
// wire form; the JSON tags serve only the tests' reference codec.
type Mutation struct {
	Op MutationOp `json:"op"`
	ID QueryID    `json:"id,omitempty"`

	// Record carries the full record for OpPut and the replacement fields
	// for OpReplaceText.
	Record     *QueryRecord  `json:"record,omitempty"`
	Annotation *Annotation   `json:"annotation,omitempty"`
	Visibility Visibility    `json:"vis,omitempty"`
	Reason     string        `json:"reason,omitempty"`
	Stale      bool          `json:"stale,omitempty"`
	Stats      *RuntimeStats `json:"stats,omitempty"`
	Sample     *OutputSample `json:"sample,omitempty"`

	// prev and next are the record versions before and after the mutation
	// was applied, stashed by the apply path for event-bus subscribers that
	// maintain derived state (incremental counters need the old version to
	// decrement). They are not encoded; replay re-derives them while
	// re-applying.
	prev *QueryRecord
	next *QueryRecord

	// shapeRef is the number of the live shape the record of a put or
	// replace-text read from the log refers to, while unresolved: its record
	// then has no shape. Apply resolves it (resolveLocked) and Encode writes
	// it back as the reference it was.
	shapeRef uint64
	// entered reports that applying the mutation entered its record's shape
	// into the store's dictionary: its frame defines the shape inline, where
	// every later frame refers to it by number. It is decided when the shape
	// is interned, because a batch interns all its records before any of
	// them is encoded.
	entered bool

	// walSeq is the WAL sequence the durability slot assigned this mutation
	// (0 when the store runs without a WAL). It is not encoded (the frame
	// carries the sequence); write paths use it to wait for group-commit
	// durability after releasing the commit lock.
	walSeq uint64
}

// SetWALSeq records the WAL sequence assigned to this mutation. The WAL slot
// calls it from inside the mutation hook, under the commit lock.
func (m *Mutation) SetWALSeq(seq uint64) { m.walSeq = seq }

// WALSeq returns the WAL sequence the durability slot assigned (0 when the
// mutation was not logged).
func (m *Mutation) WALSeq() uint64 { return m.walSeq }

// ErrUnknownShape reports a put or replace-text read from the log whose
// shape number names no live shape, or a shape with other values: the log
// does not belong to the state it is applied to.
var ErrUnknownShape = errors.New("storage: shape number does not match the store")

// targetID is the query a mutation writes to, for errors.
func (m *Mutation) targetID() QueryID {
	if m.Op == OpPut && m.Record != nil {
		return m.Record.ID
	}
	return m.ID
}

// Prev returns the record version the mutation replaced (nil for a fresh
// OpPut and for ops that do not touch a record). Populated only on mutations
// delivered through the event bus; the record is immutable and shared.
func (m *Mutation) Prev() *QueryRecord { return m.prev }

// Next returns the record version the mutation produced (nil for OpDelete
// and ops that do not touch a record). Populated only on mutations delivered
// through the event bus; the record is immutable and shared.
func (m *Mutation) Next() *QueryRecord { return m.next }

// MutationHook is a bus subscriber's callback, invoked under the store's
// commit lock so subscribers see mutations in exactly their apply order.
type MutationHook func(*Mutation)

// The mutation event bus. Every committed mutation fans out, in commit
// order, to one durability slot plus any number of derived-state
// subscribers:
//
//   - The WAL slot (SetMutationHook) is always notified first, so the log's
//     total order matches apply order and everything a derived subscriber
//     saw is recoverable. It receives only live mutations — replaying the
//     log must not re-append it.
//   - Subscribers (Subscribe) receive live AND replayed mutations, enriched
//     with the Prev/Next record versions, so incrementally maintained state
//     (stats counters, the miner feed) stays correct through crash recovery
//     without a rebuild scan. A subscriber's Rebuild hook builds its state
//     from the records at registration, and again after RestoreState
//     replaces the store wholesale, because a snapshot load has no
//     per-record mutation stream.
//
// All callbacks run under the commit lock: they must be fast and must not
// call back into mutating store methods.

// busSubscriber is one derived-state registration on the mutation bus.
type busSubscriber struct {
	id      int
	name    string
	fn      MutationHook
	rebuild func()
	// hist times this subscriber's callbacks (nil, and inert, until the store
	// is instrumented); since callbacks run under the commit lock, it is the
	// subscriber's share of the write stall. rebuildHist times its Rebuild:
	// what a restart or a follower bootstrap pays for the subscriber.
	hist, rebuildHist *telemetry.Histogram
}

// SubscribeOptions configures a mutation-bus subscription.
type SubscribeOptions struct {
	// Rebuild, when set, builds the subscriber's derived state from the
	// store's records. It runs under the commit lock immediately after
	// registration, so no mutation slips in between, and again after a
	// restore has replaced the store's contents.
	Rebuild func()
}

// runRebuild runs the subscriber's Rebuild hook, if set, timed.
func (sub *busSubscriber) runRebuild() {
	if sub.rebuild == nil {
		return
	}
	start := time.Now()
	sub.rebuild()
	sub.rebuildHist.Observe(time.Since(start))
}

// Subscribe registers a derived-state subscriber on the mutation event bus
// and returns a function that removes it. Subscribers are notified in
// subscription order, always after the WAL slot.
func (s *Store) Subscribe(name string, fn MutationHook, opts SubscribeOptions) (cancel func()) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.nextSubID++
	id := s.nextSubID
	sub := busSubscriber{
		id: id, name: name, fn: fn, rebuild: opts.Rebuild,
		hist: s.metrics.busVec.With(name), rebuildHist: s.metrics.rebuildVec.With(name),
	}
	s.subs = append(s.subs, sub)
	sub.runRebuild()
	return func() {
		s.commitMu.Lock()
		defer s.commitMu.Unlock()
		for i, sub := range s.subs {
			if sub.id == id {
				s.subs = append(s.subs[:i:i], s.subs[i+1:]...)
				return
			}
		}
	}
}

// SetMutationHook installs the durability observer in the bus's WAL slot
// (nil disables it). The WAL manager uses it to append the encoded mutation
// to the log; it is always notified first and never sees replayed mutations.
// An error it returns — the mutation is applied but did not reach the log —
// comes back from the mutating method wrapped in ErrNotDurable.
func (s *Store) SetMutationHook(h func(*Mutation) error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.hook, s.walSeq = h, 0 // a new log numbers its own sequences
}

// SetDurabilityWaiter installs the bus's durability-wait slot (nil disables
// it). Mutating methods call it with the last WAL sequence assigned (an
// earlier write's, for one that changed nothing) after releasing the commit
// lock, so the fsync wait of one batch never blocks the next batch from
// sequencing, and return its error wrapped in ErrNotDurable. The WAL manager points it at the log's
// group-commit WaitDurable.
func (s *Store) SetDurabilityWaiter(wait func(seq uint64) error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.durable = wait
}

// emit is the bus's one fan-out: the WAL slot first (skipped for a replayed
// mutation, or recovery would re-append the log to itself), then every
// subscriber in subscription order, each callback timed. It returns the WAL
// slot's error; subscribers see the mutation either way, because the store
// already holds it. Callers must hold the commit lock.
func (s *Store) emit(m *Mutation, replay bool) (logErr error) {
	s.metrics.mutations[m.Op].Inc()
	if s.hook != nil && !replay {
		start := time.Now()
		logErr = s.hook(m)
		s.metrics.walCallback.Observe(time.Since(start))
		s.walSeq = max(s.walSeq, m.walSeq) // 0 when the append failed
	}
	for i := range s.subs {
		sub := &s.subs[i]
		start := time.Now()
		sub.fn(m)
		sub.hist.Observe(time.Since(start))
	}
	return logErr
}

// Apply replays one mutation against the store without emitting it to the
// WAL slot. It is the recovery path: live operations and Apply share the
// same internal state transitions, so a store rebuilt by replaying a
// mutation stream is identical — contents and inverted indexes — to the
// store that emitted the stream. Derived-state subscribers on the event bus
// DO observe replayed mutations, so their counters are rebuilt incrementally
// alongside the store. Apply takes ownership of the
// mutation and its record: replay hands over freshly decoded values.
func (s *Store) Apply(m *Mutation) error {
	s.lockCommit()
	defer s.unlockCommit()
	changed, err := s.apply(m)
	if changed {
		s.emit(m, true)
	}
	return err
}

// apply dispatches a mutation to the shared state-transition helpers, for
// live calls, WAL replay and follower apply alike. Every transition is
// copy-on-write: the current record version stays untouched for concurrent
// readers and an updated copy replaces it in its slot. It reports whether
// the store changed and, when it did, leaves the prev/next record versions on
// the mutation for bus subscribers. An older build's session and quality ops
// never change it, and neither does an update that would leave the record's
// fields as they are: such a mutation is not published, emitted or logged.
// Callers must hold the commit lock.
func (s *Store) apply(m *Mutation) (changed bool, err error) {
	// update runs one copy-on-write field update of record m.ID, unless same
	// (when given) says the current version already holds what it would write.
	update := func(same func(rec *QueryRecord) bool, mutate func(next, old *QueryRecord)) (bool, error) {
		old, next, err := s.update(m.ID, same, mutate)
		if err != nil || next == nil {
			return false, err
		}
		m.prev, m.next = old, next
		return true, nil
	}
	missing := func(what string) (bool, error) {
		return false, fmt.Errorf("storage: apply %s: missing %s", m.Op, what)
	}
	switch m.Op {
	case OpPut:
		if m.Record == nil {
			return missing("record")
		}
		if !validID(m.Record.ID) {
			return false, fmt.Errorf("storage: apply %s: query ID %d is outside [1, %d]", m.Op, m.Record.ID, MaxQueryID)
		}
		if err := s.index.resolveLocked(m); err != nil {
			return false, err
		}
		m.prev, m.entered = s.insert(m.Record)
		m.next = m.Record
		return true, nil
	case OpAnnotate:
		if m.Annotation == nil {
			return missing("annotation")
		}
		changed, err = update(nil, func(next, old *QueryRecord) {
			next.Annotations = append(append([]Annotation(nil), old.Annotations...), *m.Annotation)
		})
		if changed && len(m.prev.Annotations) == 0 {
			s.index.annotate(m.ID)
		}
		return changed, err
	case OpSetVisibility:
		return update(func(rec *QueryRecord) bool { return rec.Visibility == m.Visibility }, func(next, _ *QueryRecord) {
			next.Visibility = m.Visibility
		})
	case OpDelete:
		rec, err := s.lookup(m.ID)
		if err != nil {
			return false, err
		}
		s.remove(rec)
		m.prev = rec
		return true, nil
	case OpSessionAssignment, OpSessionEdge, OpSetQuality:
		return false, nil
	case OpMarkInvalid:
		return update(func(rec *QueryRecord) bool { return !rec.Valid && rec.InvalidReason == m.Reason }, func(next, _ *QueryRecord) {
			next.Valid = false
			next.InvalidReason = m.Reason
		})
	case OpMarkValid:
		return update(func(rec *QueryRecord) bool { return rec.Valid && rec.InvalidReason == "" }, func(next, _ *QueryRecord) {
			next.Valid = true
			next.InvalidReason = ""
		})
	case OpMarkStale:
		return update(func(rec *QueryRecord) bool { return rec.StatsStale == m.Stale }, func(next, _ *QueryRecord) {
			next.StatsStale = m.Stale
		})
	case OpUpdateStats:
		if m.Stats == nil {
			return missing("stats")
		}
		return update(nil, func(next, _ *QueryRecord) {
			next.Stats = *m.Stats
			next.StatsStale = false
		})
	case OpSetSample:
		return update(nil, func(next, _ *QueryRecord) {
			next.Sample = m.Sample
		})
	case OpReplaceText:
		if m.Record == nil {
			return missing("record")
		}
		rec, err := s.lookup(m.ID)
		if err != nil {
			return false, err
		}
		if err := s.index.resolveLocked(m); err != nil {
			return false, err
		}
		m.next, m.entered, err = s.replaceText(rec, m.Record)
		if err != nil {
			return false, err
		}
		m.prev = rec
		return true, nil
	default:
		return false, fmt.Errorf("storage: apply: unknown op %q", m.Op)
	}
}

// lookup returns the current version of a record. Callers must hold the
// commit lock (mutation paths use it to read-modify-write).
func (s *Store) lookup(id QueryID) (*QueryRecord, error) {
	rec, ok := s.loadRecord(id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return rec, nil
}

// update performs one copy-on-write field mutation: it shallow-copies the
// current record version, lets mutate replace the fields it changes, and
// publishes the copy unless it grew past MaxRecordBytes (ErrTooLarge; the
// current version stays). It returns the versions before and after the
// update; next is nil, and nothing is published, when same (if given) reports
// that the current version already holds the update. Callers must hold the
// commit lock.
func (s *Store) update(id QueryID, same func(*QueryRecord) bool, mutate func(next, old *QueryRecord)) (old, next *QueryRecord, err error) {
	rec, err := s.lookup(id)
	if err != nil || (same != nil && same(rec)) {
		return rec, nil, err
	}
	next = rec.shallowCopy()
	mutate(next, rec)
	if err := admitRecord(next); err != nil {
		return nil, nil, err
	}
	s.storeRecord(next)
	return rec, next, nil
}

// insert places a record with an already-assigned ID into its slot and all
// indexes, pointing it at its interned shape. It is shared by the live Put
// path and WAL replay; replay of a Put whose ID already exists (a
// snapshot/segment overlap) replaces the older copy in the same slot, so
// recovery stays idempotent and scans keep ID order — the replaced version,
// if any, is returned so bus subscribers can retract its contributions, with
// whether the record entered its shape into the dictionary. A view sees the
// record once the high-water mark covers its ID, which happens after its slot
// holds it. Callers must hold the commit lock and have checked the ID with
// validID.
func (s *Store) insert(rec *QueryRecord) (replaced *QueryRecord, entered bool) {
	replaced, _ = s.loadRecord(rec.ID)
	s.index.mu.Lock()
	if replaced != nil {
		entered = s.index.replaceLocked(replaced, rec)
	} else {
		entered = s.index.addLocked(rec)
	}
	s.index.mu.Unlock()
	s.storeRecord(rec)
	if replaced == nil {
		s.count.Add(1)
	}
	if int64(rec.ID) > s.nextID.Load() {
		s.nextID.Store(int64(rec.ID))
	}
	return replaced, entered
}

// remove deletes a record from the indexes and empties its slot. Callers
// must hold the commit lock.
func (s *Store) remove(rec *QueryRecord) {
	s.index.mu.Lock()
	s.index.removeLocked(rec)
	s.index.mu.Unlock()
	s.deleteRecord(rec.ID)
	s.count.Add(-1)
}

// replaceText publishes a record version with the shape of the update — its
// text and feature relations — moving it to the shape of its new text, and
// returns the new version and whether it entered its shape into the
// dictionary. The move is one index critical section: the record is posted on
// exactly one shape whenever a reader looks. A version that would exceed
// MaxRecordBytes is refused (ErrTooLarge) and nothing changes. Callers must
// hold the commit lock.
func (s *Store) replaceText(rec, updated *QueryRecord) (next *QueryRecord, entered bool, err error) {
	next = rec.shallowCopy()
	next.QueryShape = updated.QueryShape
	if err := admitRecord(next); err != nil {
		return nil, false, err
	}
	s.index.mu.Lock()
	entered = s.index.retextLocked(rec, next)
	s.index.mu.Unlock()
	s.storeRecord(next)
	return next, entered, nil
}
