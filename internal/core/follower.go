package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Follower mode: a read replica bootstraps from the primary's newest
// snapshot, then replays the primary's WAL stream through storage.Apply —
// the same entry point recovery uses — so every derived-state subscriber
// (stats, miner feed, live sessions) rebuilds exactly as it would from the
// local log. The replica's store is read-only: its only writer is the
// replication apply loop.

// Roles a CQMS process can serve in a replication topology.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
)

// ReplicationSource is the transport a follower pulls the primary's state
// through. internal/client implements it over the /v1/replication API; tests
// implement it in-process.
type ReplicationSource interface {
	// FetchSnapshot returns the primary's newest snapshot, read and verified
	// to its last frame: the log sequence it covers and the staged store
	// state (handed over: the follower's store takes ownership of it).
	// Anything short of a whole snapshot is an error, so the follower
	// installs all of it or none. ok is false when the primary has no
	// snapshot yet — the follower then replays the whole log from 0.
	FetchSnapshot(ctx context.Context) (seq uint64, state *storage.StoreState, ok bool, err error)
	// FetchWAL streams every record with sequence > after, in order, to fn,
	// long-polling up to wait when the tail is empty. It returns the
	// primary's current last sequence and the bytes transferred. A cursor
	// that has been compacted away yields an error matching wal.ErrCompacted;
	// the follower must re-bootstrap from a newer snapshot.
	FetchWAL(ctx context.Context, after uint64, wait time.Duration, fn func(seq uint64, payload []byte) error) (primarySeq uint64, bytes int64, err error)
	// Primary names the upstream (its base URL) for status and errors.
	Primary() string
}

// followerState tracks the replication apply loop's progress.
type followerState struct {
	src  ReplicationSource
	wait time.Duration // long-poll window per FetchWAL

	appliedSeq  atomic.Uint64
	primarySeq  atomic.Uint64 // last sequence the primary reported
	snapshotSeq atomic.Uint64 // sequence the last bootstrap snapshot covered
	// caughtUpNano is the wall clock (unix nanos) of the last moment the
	// follower had applied everything the primary reported; 0 before the
	// first catch-up. It bounds read staleness: a read served now is at most
	// now-caughtUpNano behind the primary.
	caughtUpNano atomic.Int64

	mu      sync.Mutex
	lastErr string
}

// followerPollWait is the default long-poll window for the WAL tail.
const followerPollWait = 25 * time.Second

// OpenFollower creates a read replica over an existing engine, pulling state
// from src. The replica is in-memory: cfg.Durability must be disabled (its
// log of record is the primary's). Call StartFollower to begin replicating.
func OpenFollower(eng *engine.Engine, cfg Config, src ReplicationSource) (*CQMS, error) {
	if cfg.Durability.Enabled() {
		return nil, fmt.Errorf("core: a follower keeps no local log; disable Durability.Dir")
	}
	c := NewWithEngine(eng, cfg)
	c.store.SetReadOnly(true)
	f := &followerState{src: src, wait: followerPollWait}
	c.follower = f
	c.replStreamBytes = c.metrics.Counter("cqms_repl_stream_bytes_total",
		"Replication stream bytes transferred (served by a primary, consumed by a follower).")
	c.metrics.GaugeFunc("cqms_repl_applied_seq",
		"Highest WAL sequence applied locally (followers: replicated; primary: appended).",
		func() float64 { return float64(f.appliedSeq.Load()) })
	c.metrics.GaugeFunc("cqms_repl_lag_seconds",
		"Seconds since this follower last had everything the primary reported (0 when caught up).",
		func() float64 { return f.lagSeconds() })
	return c, nil
}

// StartFollower launches the replication apply loop; it returns immediately
// and the loop runs until the context is cancelled. Only valid on a CQMS
// built by OpenFollower.
func (c *CQMS) StartFollower(ctx context.Context) error {
	if c.follower == nil {
		return fmt.Errorf("core: StartFollower on a non-follower")
	}
	go c.follower.run(ctx, c)
	return nil
}

// run is the apply loop: bootstrap from a snapshot, then tail the WAL
// stream. Errors back off and retry; a compacted cursor re-bootstraps.
func (f *followerState) run(ctx context.Context, c *CQMS) {
	backoff := 100 * time.Millisecond
	const maxBackoff = 5 * time.Second
	sleep := func() bool {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(backoff):
			backoff = min(backoff*2, maxBackoff)
			return true
		}
	}
	for ctx.Err() == nil {
		if err := f.bootstrap(ctx, c); err != nil {
			f.setErr(err)
			if !sleep() {
				return
			}
			continue
		}
		backoff = 100 * time.Millisecond
		for ctx.Err() == nil {
			err := f.pullTail(ctx, c)
			if err == nil {
				f.setErr(nil)
				backoff = 100 * time.Millisecond
				continue
			}
			if errors.Is(err, wal.ErrCompacted) {
				// The records past our cursor are gone; re-bootstrap from
				// the primary's newer snapshot.
				slog.Info("replication cursor compacted; re-bootstrapping",
					"applied", f.appliedSeq.Load())
				break
			}
			f.setErr(err)
			if !sleep() {
				return
			}
		}
	}
}

// bootstrap restores the store from the primary's newest snapshot, which
// rebuilds every derived-state subscriber, and positions the cursor at its
// covered sequence. With no snapshot on the primary the follower starts
// empty and replays the whole log.
func (f *followerState) bootstrap(ctx context.Context, c *CQMS) error {
	seq, state, ok, err := f.src.FetchSnapshot(ctx)
	if err != nil {
		return fmt.Errorf("core: fetching bootstrap snapshot: %w", err)
	}
	if !ok {
		f.appliedSeq.Store(0)
		f.snapshotSeq.Store(0)
		return nil
	}
	records, start := len(state.Records), time.Now()
	if err := c.store.RestoreState(state); err != nil {
		return fmt.Errorf("core: restoring the bootstrap snapshot: %w", err)
	}
	f.appliedSeq.Store(seq)
	f.snapshotSeq.Store(seq)
	// The restore's time is the records' insertion plus every subscriber's
	// rebuild; cqms_store_subscriber_rebuild_seconds splits out the latter.
	slog.Info("follower bootstrapped from primary snapshot",
		"seq", seq, "records", records, "restore", time.Since(start))
	return nil
}

// pullTail fetches and applies one batch of WAL records.
func (f *followerState) pullTail(ctx context.Context, c *CQMS) error {
	after := f.appliedSeq.Load()
	primarySeq, n, err := f.src.FetchWAL(ctx, after, f.wait, func(seq uint64, payload []byte) error {
		m, derr := storage.DecodeMutation(payload)
		if derr != nil {
			return fmt.Errorf("core: decoding replicated mutation at seq %d: %w", seq, derr)
		}
		if aerr := c.store.Apply(m); aerr != nil {
			return fmt.Errorf("core: applying replicated mutation at seq %d: %w", seq, aerr)
		}
		f.appliedSeq.Store(seq)
		return nil
	})
	c.replStreamBytes.Add(uint64(n))
	if err != nil {
		return err
	}
	if primarySeq > f.primarySeq.Load() {
		f.primarySeq.Store(primarySeq)
	}
	if f.appliedSeq.Load() >= f.primarySeq.Load() {
		f.caughtUpNano.Store(time.Now().UnixNano())
	}
	return nil
}

// lagSeconds is the follower's replication lag: 0 when it has applied
// everything the primary last reported, otherwise the time since it last
// had (and the time since start before the first catch-up).
func (f *followerState) lagSeconds() float64 {
	if f.appliedSeq.Load() >= f.primarySeq.Load() && f.caughtUpNano.Load() != 0 {
		return 0
	}
	at := f.caughtUpNano.Load()
	if at == 0 {
		return -1 // never caught up yet; unknown
	}
	return time.Since(time.Unix(0, at)).Seconds()
}

// stalenessSeconds bounds how far behind the primary a read served now can
// be: the time since the follower last knew it was fully caught up. -1
// before the first catch-up.
func (f *followerState) stalenessSeconds() float64 {
	at := f.caughtUpNano.Load()
	if at == 0 {
		return -1
	}
	return time.Since(time.Unix(0, at)).Seconds()
}

func (f *followerState) setErr(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		f.lastErr = ""
		return
	}
	f.lastErr = err.Error()
}

// Role reports this process's replication role.
func (c *CQMS) Role() string {
	if c.follower != nil {
		return RoleFollower
	}
	return RolePrimary
}

// PrimaryURL names the upstream a follower replicates from ("" on a
// primary). Write refusals surface it so clients know where to go.
func (c *CQMS) PrimaryURL() string {
	if c.follower == nil {
		return ""
	}
	return c.follower.src.Primary()
}

// Uptime reports how long this CQMS has been constructed.
func (c *CQMS) Uptime() time.Duration { return time.Since(c.started) }

// ReplStatus is the replication status document shared by both roles.
type ReplStatus struct {
	// Role is RolePrimary or RoleFollower.
	Role string
	// Primary is the upstream URL (followers only).
	Primary string
	// AppliedSeq is the highest WAL sequence applied locally: appended on a
	// primary, replicated on a follower.
	AppliedSeq uint64
	// PrimarySeq is the primary's last sequence as this process knows it
	// (equal to AppliedSeq on the primary itself).
	PrimarySeq uint64
	// SnapshotSeq is the sequence the newest snapshot covers (the bootstrap
	// snapshot on a follower).
	SnapshotSeq uint64
	// LagRecords is max(PrimarySeq-AppliedSeq, 0).
	LagRecords uint64
	// LagSeconds is 0 when caught up, otherwise seconds since the follower
	// last was; -1 before the first catch-up. Always 0 on a primary.
	LagSeconds float64
	// StalenessSeconds bounds how far behind the primary a read served now
	// can be (followers; -1 before the first catch-up, 0 on a primary).
	StalenessSeconds float64
	// LastError is the apply loop's most recent failure ("" when healthy).
	LastError string
}

// ReplicationStatus reports the replication position of this process.
func (c *CQMS) ReplicationStatus() ReplStatus {
	if f := c.follower; f != nil {
		applied, primary := f.appliedSeq.Load(), f.primarySeq.Load()
		var lagRecords uint64
		if primary > applied {
			lagRecords = primary - applied
		}
		f.mu.Lock()
		lastErr := f.lastErr
		f.mu.Unlock()
		return ReplStatus{
			Role:             RoleFollower,
			Primary:          f.src.Primary(),
			AppliedSeq:       applied,
			PrimarySeq:       primary,
			SnapshotSeq:      f.snapshotSeq.Load(),
			LagRecords:       lagRecords,
			LagSeconds:       f.lagSeconds(),
			StalenessSeconds: f.stalenessSeconds(),
			LastError:        lastErr,
		}
	}
	st := ReplStatus{Role: RolePrimary}
	if c.wal != nil {
		st.AppliedSeq = c.wal.LastSeq()
		st.PrimarySeq = st.AppliedSeq
		st.SnapshotSeq = c.wal.SnapshotSeq()
	}
	return st
}
