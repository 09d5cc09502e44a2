package storage

import "time"

// StoreState is the full serialisable state of a Store: every record in
// insertion order, the session edge relation and the ID counter. It is what
// the WAL subsystem writes as a snapshot and what recovery loads before
// replaying the log tail; the shard placement and inverted indexes are
// derived state and are rebuilt on restore.
type StoreState struct {
	NextID  QueryID        `json:"nextId"`
	Records []*QueryRecord `json:"records"`
	Edges   []SessionEdge  `json:"edges,omitempty"`
}

// State returns a deep copy of the store's state.
func (s *Store) State() *StoreState {
	return s.StateWith(nil)
}

// SubscriberCheckpoint is one bus subscriber's serialized derived state,
// captured atomically with a StoreState and carried as a snapshot sidecar
// section so recovery can restore the subscriber instead of rebuilding it.
type SubscriberCheckpoint struct {
	Name    string
	Version int
	Data    []byte
}

// StateWith returns a deep copy of the store's state and, while still holding
// the commit lock, invokes capture. The WAL manager uses capture to record
// the last appended log sequence atomically with the snapshot contents:
// because the mutation hook runs under the commit lock, no mutation can slip
// between the captured sequence and the copied state.
func (s *Store) StateWith(capture func()) *StoreState {
	st, _ := s.stateWith(capture, false)
	return st
}

// StateWithCheckpoints is StateWith plus, in the same commit-lock critical
// section, one checkpoint per bus subscriber that offers one — so the
// derived-state checkpoints describe exactly the records in the returned
// state. A subscriber whose Checkpoint fails is omitted (recovery rebuilds
// it instead).
func (s *Store) StateWithCheckpoints(capture func()) (*StoreState, []SubscriberCheckpoint) {
	return s.stateWith(capture, true)
}

func (s *Store) stateWith(capture func(), checkpoints bool) (*StoreState, []SubscriberCheckpoint) {
	s.lockCommit()
	defer s.unlockCommit()
	if met := s.metrics; met != nil {
		start := time.Now()
		defer func() { met.capture.Observe(time.Since(start)) }()
	}
	if capture != nil {
		capture()
	}
	var cps []SubscriberCheckpoint
	if checkpoints {
		for _, sub := range s.subs {
			if sub.checkpoint == nil {
				continue
			}
			version, data, err := sub.checkpoint()
			if err != nil {
				continue
			}
			cps = append(cps, SubscriberCheckpoint{Name: sub.name, Version: version, Data: data})
		}
	}
	s.idx.RLock()
	order := s.idx.order
	edges := append([]SessionEdge(nil), s.idx.edges...)
	s.idx.RUnlock()
	st := &StoreState{
		NextID:  QueryID(s.nextID.Load()),
		Records: make([]*QueryRecord, 0, len(order)),
		Edges:   edges,
	}
	for _, id := range order {
		if rec, ok := s.loadRecord(id); ok {
			st.Records = append(st.Records, rec.Clone())
		}
	}
	return st, cps
}

// RestoreState replaces the store's entire contents with the snapshot,
// rebuilding the shard placement and every inverted index through the same
// insert path used by live operations and replay. The WAL slot of the
// mutation bus is not invoked; derived-state subscribers get their Reset
// hook once the restore completes, since a snapshot load has no per-record
// mutation stream to fan out. RestoreState takes ownership of st and its
// records — recovery hands over a freshly decoded state, and cloning ~100k
// records a second time would double restart cost.
func (s *Store) RestoreState(st *StoreState) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.restoreStateLocked(st)
	s.notifyReset()
}

// RestoreStateWithCheckpoints replaces the store's contents with the
// snapshot, then brings every bus subscriber back: a subscriber whose named
// checkpoint is present, understood and restores cleanly skips the rebuild;
// every other subscriber gets its Reset hook (a full rebuild from the
// restored store). It returns the subscriber names that restored from a
// checkpoint and those that were rebuilt, for recovery provenance.
func (s *Store) RestoreStateWithCheckpoints(st *StoreState, cps []SubscriberCheckpoint) (restored, rebuilt []string) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.restoreStateLocked(st)
	byName := make(map[string]SubscriberCheckpoint, len(cps))
	for _, cp := range cps {
		byName[cp.Name] = cp
	}
	for _, sub := range s.subs {
		if cp, ok := byName[sub.name]; ok && sub.restore != nil {
			if err := sub.restore(cp.Version, cp.Data); err == nil {
				restored = append(restored, sub.name)
				continue
			}
		}
		if sub.reset != nil {
			sub.reset()
			rebuilt = append(rebuilt, sub.name)
		}
	}
	return restored, rebuilt
}

func (s *Store) restoreStateLocked(st *StoreState) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.recs = make(map[QueryID]*QueryRecord)
		sh.mu.Unlock()
	}
	s.count.Store(0)
	s.nextID.Store(0)
	s.edgeSet = make(map[SessionEdge]struct{}, len(st.Edges))
	s.text.mu.Lock()
	s.text.reset()
	s.text.mu.Unlock()
	s.idx.Lock()
	s.idx.order = nil
	s.idx.byTable = make(map[string][]QueryID)
	s.idx.byAttribute = make(map[string][]QueryID)
	s.idx.byUser = make(map[string][]QueryID)
	s.idx.byFingerprint = make(map[uint64][]QueryID)
	s.idx.bySession = make(map[int64][]QueryID)
	s.idx.tableNames = make(map[string]map[string]int)
	s.idx.edges = append([]SessionEdge(nil), st.Edges...)
	s.idx.edgesFrom = make(map[QueryID][]SessionEdge)
	for _, e := range st.Edges {
		s.edgeSet[e] = struct{}{}
		s.idx.edgesFrom[e.From] = append(s.idx.edgesFrom[e.From], e)
	}
	s.idx.Unlock()
	for _, rec := range st.Records {
		s.insert(rec)
	}
	if int64(st.NextID) > s.nextID.Load() {
		s.nextID.Store(int64(st.NextID))
	}
}
