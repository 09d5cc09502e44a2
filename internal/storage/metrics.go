package storage

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// storeMetrics holds the store's instruments. Its zero value is the
// uninstrumented store: every instrument is nil and telemetry's instruments
// ignore calls on a nil receiver, so the write path has one shape. The store
// guards the struct with commitMu; mutation paths read it while already
// holding the lock and pay no extra synchronisation.
type storeMetrics struct {
	// mutations counts committed mutations by op. Built eagerly for every
	// known op; an unknown op indexes to a nil counter, which Inc ignores.
	mutations map[MutationOp]*telemetry.Counter
	// commitHold is the commit-lock hold time of each mutating operation —
	// the store's write-stall budget, including every bus callback that ran
	// under the lock.
	commitHold *telemetry.Histogram
	// capture is the time a snapshot capture holds the commit lock: one
	// pointer copy per record (the snapshot write-stall).
	capture *telemetry.Histogram
	// busVec times each bus callback by subscriber name; the WAL slot
	// reports as subscriber="wal". rebuildVec times each subscriber's Init
	// and Reset rebuilds.
	busVec, rebuildVec *telemetry.HistogramVec
	walCallback        *telemetry.Histogram
	// durabilityWait is the time a mutating operation spent waiting for its
	// WAL group-commit fsync after releasing the commit lock — latency the
	// caller still pays, but that no longer stalls other writers.
	durabilityWait *telemetry.Histogram
}

// allMutationOps lists every op that can commit, for eager counter
// registration, so a scrape shows zero-valued families before the first
// mutation of each kind. An older build's session and quality ops never
// commit.
var allMutationOps = []MutationOp{
	OpPut, OpAnnotate, OpSetVisibility, OpDelete,
	OpMarkInvalid, OpMarkValid, OpMarkStale, OpUpdateStats, OpSetSample,
	OpReplaceText,
}

// EnableMetrics registers the store's instruments on reg and starts
// recording. Call it once, before attaching bus subscribers if their callback
// durations should be recorded from the first mutation (subscribers attached
// earlier are picked up too).
func (s *Store) EnableMetrics(reg *telemetry.Registry) {
	m := storeMetrics{
		mutations: make(map[MutationOp]*telemetry.Counter, len(allMutationOps)),
		commitHold: reg.Histogram("cqms_store_commit_lock_hold_seconds",
			"Time the commit lock was held per mutating store operation, including bus callbacks.", nil),
		capture: reg.Histogram("cqms_store_state_capture_seconds",
			"Time the commit lock is held to capture a snapshot: one pointer copy per record.", nil),
		busVec: reg.HistogramVec("cqms_bus_callback_seconds",
			"Mutation-bus callback duration by subscriber; runs under the commit lock, so this is each subscriber's share of the write stall.",
			nil, "subscriber"),
		rebuildVec: reg.HistogramVec("cqms_store_subscriber_rebuild_seconds",
			"Time a derived-state subscriber took to rebuild from the records: on attach and after a snapshot restore.",
			nil, "subscriber"),
		durabilityWait: reg.Histogram("cqms_store_durability_wait_seconds",
			"Time a mutating operation waited, outside the commit lock, for its WAL group-commit fsync.", nil),
	}
	mutVec := reg.CounterVec("cqms_store_mutations_total",
		"Committed store mutations by operation.", "op")
	for _, op := range allMutationOps {
		m.mutations[op] = mutVec.With(string(op))
	}
	m.walCallback = m.busVec.With("wal")

	reg.GaugeFunc("cqms_store_records",
		"Number of query records currently stored.",
		func() float64 { return float64(s.Count()) })
	reg.GaugeFunc("cqms_store_shapes",
		"Distinct query shapes (text, canonical forms and features) the stored records share.",
		func() float64 { return float64(s.ShapeCount()) })
	reg.GaugeFunc("cqms_search_index_trigrams",
		"Distinct trigrams mapped to the query shapes holding them.",
		func() float64 { return float64(s.SearchIndexSize()) })

	s.commitMu.Lock()
	s.metrics = m
	for i := range s.subs {
		s.subs[i].hist = m.busVec.With(s.subs[i].name)
		s.subs[i].rebuildHist = m.rebuildVec.With(s.subs[i].name)
	}
	s.commitMu.Unlock()
}

// lockCommit takes the commit lock and stamps the acquisition time;
// unlockCommit observes the hold duration. Mutating methods use the pair
// instead of raw Lock/Unlock.
func (s *Store) lockCommit() {
	s.commitMu.Lock()
	s.commitLockedAt = time.Now()
}

func (s *Store) unlockCommit() {
	s.metrics.commitHold.Observe(time.Since(s.commitLockedAt))
	s.commitMu.Unlock()
}

// commitAndWait ends a live mutating operation: it releases the commit lock
// and then, when a durability waiter is installed, blocks until the WAL batch
// covering seq is durable. Waiting after the unlock is what turns concurrent
// writers into one group commit: the next writer sequences (and joins the
// in-flight fsync batch) while this one waits. logErr is what the WAL slot
// returned under the lock; it or a failed wait comes back as ErrNotDurable.
func (s *Store) commitAndWait(seq uint64, logErr error) error {
	wait, waited := s.durable, s.metrics.durabilityWait
	s.unlockCommit()
	if logErr == nil && wait != nil {
		start := time.Now()
		logErr = wait(seq)
		waited.Observe(time.Since(start))
	}
	if logErr != nil {
		return fmt.Errorf("%w: %v", ErrNotDurable, logErr)
	}
	return nil
}
