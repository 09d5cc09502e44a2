package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
	"repro/internal/telemetry"
)

// RecoveryInfo summarises what Open reconstructed from disk.
type RecoveryInfo struct {
	// SnapshotSeq is the log sequence the loaded snapshot covered (0 when no
	// snapshot existed).
	SnapshotSeq uint64
	// Replayed is the number of log records applied after the snapshot.
	Replayed int
	// TornTail reports that a partially written final record was discarded.
	TornTail bool
	// Duration is the wall-clock time the recovery took.
	Duration time.Duration
	// Queries is the store's record count after recovery.
	Queries int
	// PayloadFormat is the payload format version this build reads and
	// writes (storage.PayloadFormat).
	PayloadFormat int
	// SnapshotRecords and SnapshotFrames are the record and frame counts of
	// the loaded snapshot (0 when no snapshot existed).
	SnapshotRecords int
	SnapshotFrames  int
}

// Info describes the current durable state for the admin API and cqmsctl
// (the HTTP layer maps it onto its own wire DTO).
type Info struct {
	Dir         string
	SyncPolicy  string
	LastSeq     uint64
	SnapshotSeq uint64
	// AppendsSinceSnapshot counts the logged mutations the newest snapshot
	// does not cover: LastSeq - SnapshotSeq.
	AppendsSinceSnapshot int64
	Segments             []SegmentInfo
	// PayloadFormat is the payload format version of everything in Dir.
	PayloadFormat int
	// Snapshots describes every snapshot file on disk, oldest first; the
	// last one is what recovery would load.
	Snapshots []SnapshotInfo
	// AppendError reports a broken durability pipeline (failed append, fsync
	// or background flush): the writes it hit were answered with
	// storage.ErrNotDurable, and every write since is.
	AppendError string
}

// Manager binds a storage.Store to a segmented log: it recovers the store
// from disk on Open, is the store's storage.Log from then on — every
// subsequent mutation is appended to the log — and writes snapshots that
// bound recovery time. The log's last sequence is the manager's: every
// append runs under the store's commit lock, so a snapshot that reads it
// under that lock covers exactly the mutations it captured.
type Manager struct {
	store *storage.Store
	log   *Log
	cfg   Config

	// snapMu serialises snapshot/compaction runs.
	snapMu      sync.Mutex
	snapshotSeq atomic.Uint64

	// snapInfoMu guards snapInfos, what is known about the snapshot files on
	// disk by sequence (set from what recovery read and from every snapshot
	// written), so Info walks a multi-megabyte file at most once.
	snapInfoMu sync.Mutex
	snapInfos  map[uint64]SnapshotInfo

	// enc encodes mutations for the log. Append runs under the
	// store's commit lock, so one encoder and one buffer serve every append
	// without allocating.
	enc    storage.Encoder
	encBuf []byte

	// appendErr records the first log-append or durability-wait failure. The
	// write that hit it got the error back (storage.ErrNotDurable); this copy
	// is for Err, Info and Close. failed is set with it, and from then on
	// every frame defines its shape and sample inline: a failed write may have dropped a
	// definition, and no later frame may refer to it.
	errMu     sync.Mutex
	appendErr error
	failed    atomic.Bool

	// met holds the manager's instruments: all nil, and so inert, unless
	// Open was given a registry. Set once in Open, before the manager is
	// installed in the store's log slot.
	met managerMetrics
}

// Open recovers the store from cfg.Dir (newest snapshot + replay of the log
// tail) and installs itself in the log slot of the store's mutation event
// bus so every future mutation is logged. The log slot is always notified
// first, before any derived-state subscriber, so everything a subscriber
// observed is durably recoverable; replayed mutations bypass the slot (the
// log must not be re-appended to itself) while derived-state subscribers do
// observe them and rebuild incrementally during this call. The store must be
// empty of queries: recovery replaces its contents. A directory an older
// build wrote is recovered as it stands, then upgraded to this build's
// format before Open returns (upgrade.go). The log and the manager register
// their instruments on reg, unless it is nil.
func Open(store *storage.Store, cfg Config, reg *telemetry.Registry) (_ *Manager, _ *RecoveryInfo, err error) {
	recoveryStart := time.Now()
	log, err := OpenLog(cfg, reg)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			log.Close()
		}
	}()
	info := &RecoveryInfo{TornTail: log.Truncated(), PayloadFormat: storage.PayloadFormat}

	snap, err := recoverSnapshot(cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	var snapSeq uint64
	older := snap != nil && snap.older
	snapInfos := make(map[uint64]SnapshotInfo)
	if snap != nil {
		// Only now, with the stream read and checked to its last chunk, does
		// anything reach the store.
		if err := store.RestoreState(snap.State); err != nil {
			return nil, nil, fmt.Errorf("wal: snapshot %s: %w", snap.Info.Name, err)
		}
		snapSeq = snap.Seq
		info.SnapshotSeq, info.SnapshotRecords, info.SnapshotFrames = snap.Seq, snap.Info.Records, snap.Info.Frames
		snapInfos[snap.Seq] = snap.Info
	}
	err = log.Replay(snapSeq, func(seq uint64, payload []byte) error {
		wasOlder, err := store.ApplyPayload(payload)
		if err != nil {
			return fmt.Errorf("replaying record %d: %w", seq, err)
		}
		older = older || wasOlder
		info.Replayed++
		return nil
	})
	if errors.Is(err, ErrCompacted) {
		// Compaction deletes segments a snapshot covers, so the surviving log
		// must begin no later than snapSeq+1. A gap means the snapshot that
		// justified the deletion is unreadable or missing: recovering anyway
		// would silently serve a store with a hole in it.
		err = fmt.Errorf("wal: the newest readable snapshot covers only sequence %d: snapshot missing or corrupt: %w", snapSeq, err)
	}
	if err != nil {
		return nil, nil, err
	}
	info.Queries = store.Count()

	// A crash can leave the WAL tail truncated below a durable snapshot; new
	// appends must not reuse the snapshot-covered sequences.
	log.EnsureSeqAtLeast(snapSeq)
	m := &Manager{store: store, log: log, cfg: cfg, snapInfos: snapInfos}
	m.snapshotSeq.Store(snapSeq)
	if err := m.upgrade(older); err != nil {
		return nil, nil, err
	}
	info.Duration = time.Since(recoveryStart)
	m.enableMetrics(reg, info, info.Duration)
	store.SetLog(m)
	return m, info, nil
}

// Append is the store's log slot (storage.Log). It runs under the store's
// commit lock, which keeps log order identical to apply order. It only
// sequences the mutation — encode plus a buffer append — and returns the
// sequence the log assigned; the durability wait happens in WaitDurable,
// after the store releases the commit lock, so the next writer can sequence
// (and share an fsync with) this one. A mutation that did not reach the log
// is an error the store hands to the caller.
func (m *Manager) Append(mut *storage.Mutation) (uint64, error) {
	start := time.Now()
	m.enc.Inline = m.failed.Load()
	payload, err := m.enc.AppendMutation(m.encBuf[:0], mut)
	if err != nil {
		return 0, m.recordErr(fmt.Errorf("wal: %w", err))
	}
	m.encBuf = payload
	seq, err := m.log.AppendAsync(payload) // copies the payload into its batch buffer
	m.met.append.Observe(time.Since(start))
	return seq, m.recordErr(err)
}

// WaitDurable is the store's durability wait (storage.Log): mutating
// operations call it with their highest log sequence after releasing the
// commit lock. Under the always policy it blocks until the group-commit fsync
// covering seq completes; under interval/off it returns immediately (those
// policies acknowledge before durability by design) with the committer's
// failure, if it has recorded one.
func (m *Manager) WaitDurable(seq uint64) error {
	return m.recordErr(m.log.WaitDurable(seq))
}

// recordErr keeps the first non-nil error for Err and returns err as given.
func (m *Manager) recordErr(err error) error {
	if err != nil {
		m.failed.Store(true)
		m.errMu.Lock()
		if m.appendErr == nil {
			m.appendErr = err
		}
		m.errMu.Unlock()
	}
	return err
}

// Err returns the first append, fsync or background-flush failure, if any.
// The in-memory store remains correct after one; writes are answered with
// storage.ErrNotDurable.
func (m *Manager) Err() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	if m.appendErr != nil {
		return m.appendErr
	}
	return m.log.Err()
}

// Snapshot writes a full-store snapshot and returns its path. The snapshot's
// sequence is captured under the store lock, so it covers exactly the
// mutations applied before it and recovery replays exactly the ones after.
func (m *Manager) Snapshot() (string, uint64, error) {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	return m.snapshotLocked()
}

func (m *Manager) snapshotLocked() (string, uint64, error) {
	// Snapshots are rare; an unconditional clock read is fine here.
	start := time.Now()
	var seq uint64
	// The commit lock is held only to collect the record pointers and seal
	// the log at their sequence; encoding and writing happen after it is
	// released, chunk by chunk.
	st := m.store.CaptureState(func() { seq = m.log.seal() })
	path, info, err := WriteSnapshot(m.cfg.Dir, seq, st)
	if err != nil {
		return "", 0, err
	}
	m.snapshotSeq.Store(seq)
	m.snapInfoMu.Lock()
	m.snapInfos[seq] = info
	m.snapInfoMu.Unlock()
	m.met.snapshot.Observe(time.Since(start))
	return path, seq, nil
}

// Compact snapshots the store, deletes the log segments the snapshot covers
// and prunes older snapshots. It returns the snapshot path and the number of
// removed segments, the one being written at the capture included: the
// snapshot's sequence ends it, so the log left holds only frames past the
// snapshot. Nothing is deleted on the strength of a snapshot that does not
// read back: the file just written is walked to its last frame first
// (VerifySnapshot), and a failure leaves every segment and every older
// snapshot in place.
func (m *Manager) Compact() (string, uint64, int, error) {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	start := time.Now()
	path, seq, err := m.snapshotLocked()
	if err != nil {
		return "", 0, 0, err
	}
	if _, err := VerifySnapshot(path); err != nil {
		return path, seq, 0, fmt.Errorf("wal: compaction kept every segment: the new snapshot does not verify: %w", err)
	}
	removed, err := m.log.RemoveSegmentsCoveredBy(seq)
	if err != nil {
		return path, seq, removed, err
	}
	if _, err := RemoveSnapshotsBefore(m.cfg.Dir, seq); err != nil {
		return path, seq, removed, err
	}
	m.met.compaction.Observe(time.Since(start))
	return path, seq, removed, nil
}

// MaybeSnapshot snapshots and compacts only if the log holds mutations the
// newest snapshot does not cover; the background scheduler calls it
// periodically.
func (m *Manager) MaybeSnapshot() error {
	if m.pending() == 0 {
		return nil
	}
	_, _, _, err := m.Compact()
	return err
}

// pending counts the logged mutations the newest snapshot does not cover,
// replayed ones included. The snapshot sequence is read first: it never
// passes the log's last sequence, so the difference never underflows.
func (m *Manager) pending() uint64 {
	snap := m.snapshotSeq.Load()
	return m.log.LastSeq() - snap
}

// Info reports the durable state.
func (m *Manager) Info() (Info, error) {
	segs, err := m.log.Segments()
	if err != nil {
		return Info{}, err
	}
	snaps, err := m.snapshotInfos()
	if err != nil {
		return Info{}, err
	}
	snapSeq := m.snapshotSeq.Load() // first, as in pending
	lastSeq := m.log.LastSeq()
	info := Info{
		Dir:                  m.cfg.Dir,
		SyncPolicy:           m.log.policy.String(),
		LastSeq:              lastSeq,
		SnapshotSeq:          snapSeq,
		AppendsSinceSnapshot: int64(lastSeq - snapSeq),
		Segments:             segs,
		PayloadFormat:        storage.PayloadFormat,
		Snapshots:            snaps,
	}
	if err := m.Err(); err != nil {
		info.AppendError = err.Error()
	}
	return info, nil
}

// snapshotInfos describes the snapshot files on disk, oldest first. A file
// this manager neither wrote nor loaded is walked once (VerifySnapshot) and
// remembered; entries of files that are gone are dropped.
func (m *Manager) snapshotInfos() ([]SnapshotInfo, error) {
	snaps, err := listSnapshots(m.cfg.Dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	m.snapInfoMu.Lock()
	defer m.snapInfoMu.Unlock()
	known := make(map[uint64]SnapshotInfo, len(snaps))
	out := make([]SnapshotInfo, 0, len(snaps))
	for _, snap := range snaps {
		info, ok := m.snapInfos[snap.FirstSeq]
		if !ok {
			if info, err = VerifySnapshot(filepath.Join(m.cfg.Dir, snap.Name)); err != nil {
				info = SnapshotInfo{Name: snap.Name, Seq: snap.FirstSeq, Error: err.Error()}
			}
		}
		known[snap.FirstSeq] = info
		out = append(out, info)
	}
	m.snapInfos = known
	return out, nil
}

// Close detaches the manager from the store's log slot, flushes the log and
// closes it. It returns the first append error encountered during the
// manager's lifetime, if any.
func (m *Manager) Close() error {
	m.store.SetLog(nil)
	err := m.log.Close()
	if aerr := m.Err(); err == nil {
		err = aerr
	}
	return err
}
