// Package wal implements durable persistence for the CQMS query log: a
// segmented append-only write-ahead log of storage mutations plus periodic
// full-store snapshots. The paper treats the query log as a long-lived,
// community-owned asset that "grows over time"; this package is what lets it
// survive a process crash or restart without losing a single logged query.
//
// Layout of a data directory:
//
//	wal-00000000000000000001.seg   log segment, named by its first sequence
//	wal-00000000000000004096.seg
//	snapshot-00000000000000003000.snap  full store state as of sequence 3000
//
// Every log record is framed as
//
//	uint32 payload length | uint32 CRC32(seq,payload) | uint64 seq | payload
//
// (little-endian). On open, a torn tail — a partially written final record
// left by a crash — is detected by the length/CRC check and truncated, so
// recovery always resumes from the last fully durable record. Recovery loads
// the newest valid snapshot and replays only the log records with sequence
// numbers beyond it; compaction deletes segments and snapshots made obsolete
// by a newer snapshot.
//
// A snapshot's sequence ends a segment. Its capture seals the log there (a
// field under seqMu, no I/O); the committer starts a new segment before it
// writes the first frame past the seal into a segment that holds frames at
// or before it, and compaction starts one for an idle log. Compaction then
// removes every segment the snapshot covers, the one that was active too, so
// recovery, OpenLog and a follower's tail read only the frames the newest
// snapshot leaves uncovered.
//
// # Reading the log
//
// The directory is read one way. listSeqFiles is the only listing, of
// segments and snapshots alike. readFrames is the only walk over a log's
// frames, a segment's (readSegment: OpenLog cuts a torn tail at the length
// of the valid frames it returns) and a replication stream's (ReadFrames).
// Log.Replay is the only walk over the segments from a cursor, and the one
// check that compaction has not removed the records just past it: recovery
// replays the tail past its snapshot with it, and ReadTail serves the
// replication stream with it.
//
// # Group commit
//
// The append path is split into sequence → write → durability stages.
// AppendAsync assigns a sequence and encodes the frame into a pending buffer
// under a short mutex; a single committer goroutine drains the buffer,
// writes every pending frame with one file write and — under SyncAlways —
// one fsync, then wakes every waiter at once. Concurrent appenders therefore
// share fsyncs instead of serialising on them, with the acknowledgement
// guarantee unchanged: WaitDurable does not return under SyncAlways until
// the batch fsync covering the record has completed.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/telemetry"
)

// SyncPolicy controls when appended records are fsynced to stable storage.
type SyncPolicy int

// Sync policies.
const (
	// SyncInterval fsyncs from a background flusher every 200 ms. A crash
	// can lose at most the last interval of appends.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs before acknowledging an append. No acknowledged
	// record is ever lost; concurrent appends share one group-commit fsync.
	SyncAlways
	// SyncOff never fsyncs explicitly; the OS flushes on its own schedule.
	SyncOff
)

// String returns the configuration spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	default:
		return "interval"
	}
}

// ParseSyncPolicy parses "always", "interval" or "off".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "off", "never":
		return SyncOff, nil
	default:
		return SyncInterval, fmt.Errorf("wal: unknown sync policy %q (want always, interval or off)", s)
	}
}

// Config is the durability section of the CQMS configuration, and what
// OpenLog opens a log with.
type Config struct {
	// Dir is the data directory; empty disables durability.
	Dir string
	// SyncPolicy is "always", "interval" or "off" (ParseSyncPolicy).
	SyncPolicy string
	// SegmentBytes is the segment rotation threshold (DefaultSegmentBytes
	// when not positive).
	SegmentBytes int64
	// SnapshotEvery is how often the background scheduler snapshots the
	// store and compacts the log (0 disables scheduled snapshots).
	SnapshotEvery time.Duration
}

const (
	// DefaultSegmentBytes is the segment rotation threshold DefaultConfig
	// sets, and what OpenLog takes for a SegmentBytes that is not positive.
	DefaultSegmentBytes = 8 << 20
	// flushInterval is the background flush period under SyncInterval.
	flushInterval = 200 * time.Millisecond
)

// DefaultConfig returns the default durability configuration for a data
// directory (interval fsync, 8 MiB segments, snapshot every 5 minutes).
func DefaultConfig(dir string) Config {
	return Config{
		Dir:           dir,
		SyncPolicy:    SyncInterval.String(),
		SegmentBytes:  DefaultSegmentBytes,
		SnapshotEvery: 5 * time.Minute,
	}
}

// Enabled reports whether the configuration turns durability on.
func (c Config) Enabled() bool { return c.Dir != "" }

// SegmentInfo describes one on-disk log segment.
type SegmentInfo struct {
	Name     string
	FirstSeq uint64
	Bytes    int64
}

// Log is a segmented append-only record log. It is safe for concurrent use.
//
// Two mutexes split the append path: seqMu guards sequencing (cheap, held
// for nanoseconds per append) and ioMu guards the active segment file (held
// across writes and fsyncs, almost always by the committer goroutine alone).
// Neither is ever taken while holding the other.
type Log struct {
	dir          string
	policy       SyncPolicy
	segmentBytes int64
	met          logMetrics

	// seqMu guards the sequencing state below. wake signals the committer
	// that there is work; progress is broadcast to WaitDurable/Sync waiters
	// after every committer iteration.
	seqMu    sync.Mutex
	wake     sync.Cond
	progress sync.Cond
	// pending holds the encoded frames sequenced but not yet handed to the
	// OS; spare is the drained buffer from the previous batch, swapped back
	// in so steady-state appends reuse two long-lived buffers.
	pending       []byte
	pendingN      int
	pendingFirst  uint64 // sequence of the first pending frame
	spare         []byte
	lastSeq       uint64 // last sequenced record (0 when the log is empty)
	writtenSeq    uint64 // last record handed to the OS file
	durableSeq    uint64 // last record covered by a completed fsync
	syncTarget    uint64 // Sync() barrier: fsync up to here regardless of policy
	closed        bool
	committerDone bool
	ioErr         error // first committer write/fsync failure; appends refuse after it
	truncated     bool  // a torn tail was cut during open
	// sealSeq is the newest snapshot's sequence: the committer starts a new
	// segment before the first frame past it (seal, writeBatch).
	sealSeq uint64

	// ioMu guards the active segment file. segFirst is the sequence it is
	// named for, segLast the last frame written to it (segFirst-1 while it
	// holds none).
	ioMu        sync.Mutex
	file        *os.File
	segFirst    uint64
	segLast     uint64
	segBytes    int64
	syncedBytes int64 // bytes of the active segment covered by an fsync
	dirty       bool  // writes not yet fsynced

	// beforeSync, when set (crash-consistency tests only), runs between the
	// committer's batch write and its fsync — the window a real crash would
	// tear. Guarded by seqMu; the committer snapshots it per iteration.
	beforeSync func()

	stopFlush  chan struct{}
	flushDone  chan struct{}
	commitDone chan struct{}
}

const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".seg"
	snapshotPrefix = "snapshot-"
	snapshotSuffix = ".snap"
	headerBytes    = 16 // uint32 len + uint32 crc + uint64 seq
	// maxPayloadBytes bounds a single frame's payload. It follows from what
	// the store admits: no mutation and no record exceeds
	// storage.MaxRecordBytes (the store refuses the write before applying
	// it), a snapshot chunk closes at snapshotChunkBytes and overshoots by
	// at most one record (and older builds cut a checkpoint section into
	// snapshotChunkBytes parts). The slack covers a put's few header bytes
	// and a chunk's per-record length prefix. Writers never produce a larger
	// frame and readers treat a larger length field as corruption.
	maxPayloadBytes = storage.MaxRecordBytes + snapshotChunkBytes + 64
	// readStepBytes is how much of a large payload a reader asks for at a
	// time: its buffer grows as bytes actually arrive, so a corrupt length
	// field costs no more memory than the file or stream really holds.
	readStepBytes = 1 << 20
)

// errTorn marks a partial or corrupt record at the end of a segment.
var errTorn = errors.New("wal: torn record")

// seqFileName and parseSeqFileName implement the shared <prefix><seq 20
// digits><suffix> naming of segments and snapshots. A name whose middle is
// anything but exactly 20 ASCII digits — a stray copy such as
// wal-00000000000000000001_old.seg — is not the log's, and is ignored. The
// name is built without fmt, whose pooled printers make a snapshot write's
// allocation count depend on which P its goroutine resumes on after fsync.
func seqFileName(prefix string, seq uint64, suffix string) string {
	const zeros = "00000000000000000000" // a uint64 has at most 20 digits
	digits := strconv.FormatUint(seq, 10)
	return prefix + zeros[len(digits):] + digits + suffix
}

func parseSeqFileName(name, prefix, suffix string) (uint64, bool) {
	rest, hasPrefix := strings.CutPrefix(name, prefix)
	digits, hasSuffix := strings.CutSuffix(rest, suffix)
	if !hasPrefix || !hasSuffix || len(digits) != 20 {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	return seq, err == nil
}

func segmentName(firstSeq uint64) string {
	return seqFileName(segmentPrefix, firstSeq, segmentSuffix)
}

// OpenLog opens (or creates) the segmented log in cfg.Dir, truncating any
// torn tail left in the newest segment by a crash, and starts the group
// committer. It registers the log's instruments on reg, unless reg is nil.
func OpenLog(cfg Config, reg *telemetry.Registry) (*Log, error) {
	policy, err := ParseSyncPolicy(cfg.SyncPolicy)
	if err != nil {
		return nil, err
	}
	if cfg.Dir == "" {
		return nil, errors.New("wal: open: empty directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{dir: cfg.Dir, policy: policy, segmentBytes: cfg.SegmentBytes, met: newLogMetrics(reg, policy)}
	if l.segmentBytes <= 0 {
		l.segmentBytes = DefaultSegmentBytes
	}
	l.wake.L = &l.seqMu
	l.progress.L = &l.seqMu
	segs, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
	} else {
		last := segs[len(segs)-1]
		path := filepath.Join(cfg.Dir, last.Name)
		var lastSeq uint64
		validBytes, err := readSegment(path, func(seq uint64, _ []byte) error {
			lastSeq = seq
			return nil
		})
		if errors.Is(err, errTorn) {
			if err := os.Truncate(path, validBytes); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", last.Name, err)
			}
			l.truncated = true
		} else if err != nil {
			return nil, err
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open: %w", err)
		}
		l.file = f
		l.segBytes = validBytes
		l.syncedBytes = validBytes
		if lastSeq == 0 {
			// The newest segment holds no valid records: the log ends just
			// before the sequence the segment was named for.
			lastSeq = last.FirstSeq - 1
		}
		l.lastSeq, l.segFirst, l.segLast = lastSeq, last.FirstSeq, lastSeq
	}
	l.writtenSeq = l.lastSeq
	l.durableSeq = l.lastSeq
	l.commitDone = make(chan struct{})
	go l.commitLoop()
	if policy == SyncInterval {
		l.stopFlush = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

func (l *Log) openSegment(firstSeq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(firstSeq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	// Persist the directory entry: without this a crash could lose the whole
	// segment file even though its records were fsynced.
	syncDir(l.dir)
	l.file = f
	l.segFirst, l.segLast = firstSeq, firstSeq-1
	l.segBytes = 0
	l.syncedBytes = 0
	l.dirty = false
	return nil
}

func (l *Log) flushLoop() {
	defer close(l.flushDone)
	ticker := time.NewTicker(flushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.stopFlush:
			return
		case <-ticker.C:
			_ = l.Sync() // a failure is the committer's ioErr, which Err reports
		}
	}
}

// Err returns the first committer failure, if any: a failed write, or a
// failed fsync whether an append, a Sync barrier or the background flusher
// asked for it. Appends under the interval policy are acknowledged before
// they reach disk, so a failing flusher must be surfaced out of band.
func (l *Log) Err() error {
	l.seqMu.Lock()
	defer l.seqMu.Unlock()
	return l.ioErr
}

// AppendAsync sequences one record: it assigns the next sequence number,
// encodes the frame into the pending batch and returns without waiting for
// the write or fsync. Pair it with WaitDurable(seq) to get the policy's
// durability guarantee. The payload is copied; the caller may reuse it
// immediately.
func (l *Log) AppendAsync(payload []byte) (uint64, error) {
	if len(payload) > maxPayloadBytes {
		// Readers would take the frame for corruption and cut the log there.
		// The store's admission check (storage.MaxRecordBytes) keeps every
		// mutation under the limit; this guards callers that bypass it.
		return 0, fmt.Errorf("wal: append: %d-byte record exceeds the %d-byte frame limit", len(payload), maxPayloadBytes)
	}
	l.seqMu.Lock()
	if l.closed {
		l.seqMu.Unlock()
		return 0, errors.New("wal: append on closed log")
	}
	if l.ioErr != nil {
		err := l.ioErr
		l.seqMu.Unlock()
		return 0, err
	}
	seq := l.lastSeq + 1
	l.lastSeq = seq
	if l.pendingN == 0 {
		l.pendingFirst = seq
	}
	l.pending = appendFrame(l.pending, seq, payload)
	l.pendingN++
	l.wake.Signal()
	l.seqMu.Unlock()
	return seq, nil
}

// WaitDurable blocks until the record with the given sequence has the
// durability its policy promises: under SyncAlways that is a completed fsync
// covering it (shared with every other record in its group-commit batch);
// under SyncInterval and SyncOff appends are acknowledged before they reach
// disk, so WaitDurable returns immediately. Any seq, 0 too, reports a failure
// the log has recorded.
func (l *Log) WaitDurable(seq uint64) error {
	l.seqMu.Lock()
	defer l.seqMu.Unlock()
	if l.policy == SyncAlways {
		for l.durableSeq < seq && l.ioErr == nil && !l.committerDone {
			l.progress.Wait()
		}
	}
	if l.durableSeq >= seq || l.policy != SyncAlways {
		return l.ioErr
	}
	if l.ioErr != nil {
		return l.ioErr
	}
	return errors.New("wal: log closed before record became durable")
}

// commitLoop is the group committer: it drains the pending batch, writes it
// with one file write (rotating segments at frame boundaries), fsyncs once
// when the policy or a Sync barrier demands it, and publishes the new
// written/durable horizon to every waiter.
func (l *Log) commitLoop() {
	defer close(l.commitDone)
	l.seqMu.Lock()
	for {
		for l.pendingN == 0 && l.syncTarget <= l.durableSeq && !l.closed {
			l.wake.Wait()
		}
		if l.pendingN == 0 && l.syncTarget <= l.durableSeq && l.closed {
			break
		}
		if l.policy == SyncAlways && l.pendingN > 0 && !l.closed {
			// An fsync is about to be paid for this batch. Appenders released
			// by the previous fsync are typically re-sequencing right now;
			// yield to the scheduler while the batch keeps growing (bounded)
			// so the burst shares this fsync instead of fragmenting across
			// several. Costs at most a few microsecond yields against an
			// fsync that is three orders of magnitude slower.
			for i := 0; i < 8; i++ {
				n := l.pendingN
				l.seqMu.Unlock()
				runtime.Gosched()
				l.seqMu.Lock()
				if l.pendingN == n || l.closed {
					break
				}
			}
		}
		batch := l.pending
		n := l.pendingN
		first := l.pendingFirst
		last := first + uint64(n) - 1
		l.pending = l.spare[:0:cap(l.spare)]
		l.pendingN = 0
		needSync := l.policy == SyncAlways || l.syncTarget > l.durableSeq
		hook, seal := l.beforeSync, l.sealSeq
		l.seqMu.Unlock()

		var err error
		if n > 0 {
			err = l.writeBatch(batch, first, seal)
		}
		if hook != nil {
			hook()
		}
		synced := false
		if err == nil && needSync {
			err = l.syncIO()
			synced = err == nil
		}

		l.seqMu.Lock()
		l.spare = batch[:0:cap(batch)]
		if err != nil {
			if l.ioErr == nil {
				l.ioErr = err
			}
		} else {
			if n > 0 {
				l.writtenSeq = last
				l.met.batchRecords.ObserveCount(n)
				if synced && n > 1 && l.policy == SyncAlways {
					l.met.fsyncsSaved.Add(uint64(n - 1))
				}
			}
			if synced {
				l.durableSeq = l.writtenSeq
			}
		}
		l.progress.Broadcast()
		if l.ioErr != nil {
			break
		}
	}
	l.committerDone = true
	l.progress.Broadcast()
	l.seqMu.Unlock()
}

// writeBatch appends a buffer of pre-encoded frames to the active segment,
// rotating at frame boundaries when a frame would push the segment past
// SegmentBytes or is the first frame past seal. Frames between rotations go
// to the OS in a single write.
func (l *Log) writeBatch(batch []byte, firstSeq, seal uint64) error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	off := 0
	nextSeq := firstSeq
	for off < len(batch) {
		runStart := off
		runSeq := nextSeq
		runBytes := int64(0)
		for off < len(batch) {
			frameLen := int64(headerBytes) + int64(binary.LittleEndian.Uint32(batch[off:]))
			if held := l.segBytes + runBytes; held > 0 && (held+frameLen > l.segmentBytes || nextSeq == seal+1) {
				break // this frame starts the next segment
			}
			runBytes += frameLen
			off += int(frameLen)
			nextSeq++
		}
		if off == runStart {
			// The next frame needs a fresh segment: fsync and close the full
			// or sealed one (older segments never hold torn tails) and start
			// the new segment at that frame's sequence.
			if err := l.rotateLocked(runSeq); err != nil {
				return err
			}
			continue
		}
		if err := l.writeRun(batch[runStart:off]); err != nil {
			return err
		}
		l.segLast = nextSeq - 1
	}
	return nil
}

// writeRun writes one contiguous run of frames to the active segment.
// Callers must hold ioMu.
func (l *Log) writeRun(run []byte) error {
	n, err := l.file.Write(run)
	if err != nil {
		if n > 0 {
			// Cut the partial frame so the on-disk segment ends at the last
			// good record instead of garbage recovery would truncate away
			// together with later appends.
			_ = l.file.Truncate(l.segBytes)
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	l.segBytes += int64(n)
	l.dirty = true
	return nil
}

// rotateLocked closes the active segment (fsyncing it so older segments can
// never hold torn tails) and starts a new one whose first record will be seq.
// Callers must hold ioMu.
func (l *Log) rotateLocked(seq uint64) error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.file.Close(); err != nil {
		return fmt.Errorf("wal: rotating segment: %w", err)
	}
	return l.openSegment(seq)
}

// Sync is a durability barrier: it blocks until every record sequenced
// before the call is fsynced, regardless of policy, and returns the first
// committer error otherwise. On a closed log it returns nil (Close already
// flushed).
func (l *Log) Sync() error {
	l.seqMu.Lock()
	defer l.seqMu.Unlock()
	if l.closed && l.committerDone {
		return nil
	}
	target := l.lastSeq
	if l.syncTarget < target {
		l.syncTarget = target
	}
	l.wake.Signal()
	for l.durableSeq < target && l.ioErr == nil && !l.committerDone {
		l.progress.Wait()
	}
	if l.durableSeq >= target {
		return nil
	}
	return l.ioErr
}

// syncIO fsyncs the active segment.
func (l *Log) syncIO() error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	return l.syncLocked()
}

// syncLocked fsyncs the active segment if it has unsynced writes. Callers
// must hold ioMu.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.file.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.met.fsync.Observe(time.Since(start))
	l.met.fsyncs.Inc()
	l.syncedBytes = l.segBytes
	l.dirty = false
	return nil
}

// waitWritten blocks until every sequenced record has been handed to the OS
// (not necessarily fsynced). Read-side admin operations use it so segment
// files reflect every acknowledged append.
func (l *Log) waitWritten() error {
	l.seqMu.Lock()
	defer l.seqMu.Unlock()
	for l.writtenSeq < l.lastSeq && l.ioErr == nil && !l.committerDone {
		l.wake.Signal()
		l.progress.Wait()
	}
	return l.ioErr
}

// Close drains the committer (pending appends are written, and fsynced under
// SyncAlways), flushes and closes the log. The log cannot be used afterwards.
func (l *Log) Close() error {
	l.seqMu.Lock()
	if l.closed {
		l.seqMu.Unlock()
		return nil
	}
	l.closed = true
	l.wake.Broadcast()
	l.seqMu.Unlock()
	if l.stopFlush != nil {
		close(l.stopFlush)
		<-l.flushDone
	}
	<-l.commitDone
	l.ioMu.Lock()
	err := l.syncLocked()
	if cerr := l.file.Close(); err == nil {
		err = cerr
	}
	l.ioMu.Unlock()
	if err == nil {
		l.seqMu.Lock()
		if l.ioErr == nil {
			l.durableSeq = l.writtenSeq
		}
		l.seqMu.Unlock()
	}
	return err
}

// LastSeq returns the sequence of the most recently sequenced record.
func (l *Log) LastSeq() uint64 {
	l.seqMu.Lock()
	defer l.seqMu.Unlock()
	return l.lastSeq
}

// DurableSeq returns the highest sequence covered by a completed fsync.
func (l *Log) DurableSeq() uint64 {
	l.seqMu.Lock()
	defer l.seqMu.Unlock()
	return l.durableSeq
}

// EnsureSeqAtLeast advances the next-append sequence past seq. Recovery calls
// this with the loaded snapshot's sequence: a crash can truncate the WAL tail
// below a durable snapshot, and without the bump new appends would reuse
// sequences the snapshot already covers — records the next recovery would
// then silently skip. It is a recovery-time API: callers must not have
// appends in flight.
func (l *Log) EnsureSeqAtLeast(seq uint64) {
	l.seqMu.Lock()
	defer l.seqMu.Unlock()
	if seq > l.lastSeq && l.pendingN == 0 {
		l.lastSeq = seq
		// The skipped sequences exist only in the snapshot; there is nothing
		// to write or fsync for them.
		l.writtenSeq = seq
		l.durableSeq = seq
	}
}

// Truncated reports whether a torn tail was cut when the log was opened.
func (l *Log) Truncated() bool {
	l.seqMu.Lock()
	defer l.seqMu.Unlock()
	return l.truncated
}

// Segments lists the on-disk segments in sequence order, after flushing any
// pending appends so the listing covers every acknowledged record.
func (l *Log) Segments() ([]SegmentInfo, error) {
	if err := l.waitWritten(); err != nil {
		return nil, err
	}
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	return listSegments(l.dir)
}

// Replay streams every record with sequence > after, in order, to fn; the
// payload is valid only during the call. It is the one walk over the
// segments from a cursor: recovery replays the tail past its snapshot with
// it, and ReadTail serves the replication stream with it. If compaction has
// removed the records just past the cursor (the log begins after after+1),
// Replay returns an error matching ErrCompacted and calls fn for no record.
// A torn tail in the newest segment ends the replay cleanly; corruption
// anywhere else is an error, as is an error returned by fn (reported with
// the segment's file name). Replay drains pending appends first, then holds
// the I/O lock, so it observes every acknowledged record and no concurrent
// write.
func (l *Log) Replay(after uint64, fn func(seq uint64, payload []byte) error) error {
	if err := l.waitWritten(); err != nil {
		return err
	}
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	if len(segs) > 0 && segs[0].FirstSeq > after+1 {
		return fmt.Errorf("%w: the log begins at sequence %d", ErrCompacted, segs[0].FirstSeq)
	}
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].FirstSeq-1 <= after {
			continue // every record here is at or before the cursor
		}
		_, err := readSegment(filepath.Join(l.dir, seg.Name), func(seq uint64, payload []byte) error {
			if seq <= after {
				return nil
			}
			return fn(seq, payload)
		})
		if errors.Is(err, errTorn) && i == len(segs)-1 {
			return nil
		}
		if err != nil {
			return fmt.Errorf("wal: segment %s: %w", seg.Name, err)
		}
	}
	return nil
}

// seal makes the last sequenced record the end of a segment and returns its
// sequence: the committer starts a new segment before it writes the next
// frame into one that holds frames. A snapshot's capture seals under the
// store's commit lock, before any frame past it is sequenced; it does no
// I/O.
func (l *Log) seal() uint64 {
	l.seqMu.Lock()
	defer l.seqMu.Unlock()
	l.sealSeq = l.lastSeq
	return l.lastSeq
}

// RemoveSegmentsCoveredBy deletes every segment whose records all have
// sequence <= seq and returns how many it deleted. The active segment is
// among them when its last frame is at or before seq: a fresh one named
// seq+1 is started first and takes the next frame. For a snapshot's
// sequence, which ends a segment (seal), no segment is left that holds a
// frame <= seq.
func (l *Log) RemoveSegmentsCoveredBy(seq uint64) (int, error) {
	if err := l.waitWritten(); err != nil {
		return 0, err
	}
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if l.segFirst <= seq && l.segLast <= seq {
		// Every frame up to seq was written (waitWritten) and none past it
		// was: seq+1 is the next frame the committer writes.
		if err := l.rotateLocked(seq + 1); err != nil {
			return 0, err
		}
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i := 0; i+1 < len(segs); i++ {
		lastOfSeg := segs[i+1].FirstSeq - 1
		if lastOfSeg > seq {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, segs[i].Name)); err != nil {
			return removed, fmt.Errorf("wal: compacting: %w", err)
		}
		removed++
	}
	return removed, nil
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

// appendFrame encodes one record frame onto dst and returns the grown slice.
// The committer writes frames straight out of the pending buffer this builds,
// so a steady-state append allocates nothing: the two batch buffers are
// recycled forever once they reach the high-water batch size.
func appendFrame(dst []byte, seq uint64, payload []byte) []byte {
	// The header is built directly inside dst and the CRC patched in
	// afterwards: passing a stack array's slices to crc32 makes escape
	// analysis move it to the heap, which would cost one allocation per
	// append.
	off := len(dst)
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	crc := crc32.Update(crc32.ChecksumIEEE(dst[off+8:off+16]), crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(dst[off+4:off+8], crc)
	return dst
}

// frameReader reads CRC frames from a stream into one reused payload buffer.
type frameReader struct {
	r      *bufio.Reader
	header [headerBytes]byte
	buf    []byte
}

// newFrameReader buffers r lightly: frame headers and small payloads come
// out of the 64 KiB buffer, and bufio reads anything larger straight into
// the payload buffer.
func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// next reads one frame. The payload is valid until the following call. It
// returns errTorn for a partial or corrupt frame and io.EOF at a clean end.
func (fr *frameReader) next() (seq uint64, payload []byte, frameLen int64, err error) {
	if _, err := io.ReadFull(fr.r, fr.header[:]); err != nil {
		if err == io.EOF {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, errTorn // partial header
	}
	n := int(binary.LittleEndian.Uint32(fr.header[0:4]))
	if n > maxPayloadBytes {
		return 0, nil, 0, errTorn
	}
	wantCRC := binary.LittleEndian.Uint32(fr.header[4:8])
	seq = binary.LittleEndian.Uint64(fr.header[8:16])
	fr.buf = fr.buf[:0]
	for len(fr.buf) < n {
		step := min(n-len(fr.buf), readStepBytes)
		fr.buf = slices.Grow(fr.buf, step)
		got, err := io.ReadFull(fr.r, fr.buf[len(fr.buf):len(fr.buf)+step])
		fr.buf = fr.buf[:len(fr.buf)+got]
		if err != nil {
			return 0, nil, 0, errTorn // partial payload
		}
	}
	if crc32.Update(crc32.ChecksumIEEE(fr.header[8:16]), crc32.IEEETable, fr.buf) != wantCRC {
		return 0, nil, 0, errTorn
	}
	return seq, fr.buf, headerBytes + int64(n), nil
}

// readSegment streams every valid record of one segment file to fn and
// returns the byte length of those records, the offset a torn tail is cut
// at. It returns errTorn if the segment ends in a partial or corrupt record.
// The payload handed to fn is valid only during the call.
func readSegment(path string, fn func(seq uint64, payload []byte) error) (validBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: reading segment: %w", err)
	}
	defer f.Close()
	return readFrames(f, fn)
}

// readFrames is the one frame walk: it hands every valid frame of r to fn
// and returns their byte length, with errTorn at a partial or corrupt frame.
func readFrames(r io.Reader, fn func(seq uint64, payload []byte) error) (validBytes int64, err error) {
	fr := newFrameReader(r)
	for {
		seq, payload, frameLen, err := fr.next()
		if err == io.EOF {
			return validBytes, nil
		}
		if err != nil {
			return validBytes, err
		}
		if err := fn(seq, payload); err != nil {
			return validBytes, err
		}
		validBytes += frameLen
	}
}

// listSegments lists the log's segments in sequence order.
func listSegments(dir string) ([]SegmentInfo, error) {
	return listSeqFiles(dir, segmentPrefix, segmentSuffix)
}

// listSeqFiles is the one directory listing of the package: it returns the
// files of dir named <prefix><seq 20 digits><suffix>, in ascending sequence,
// with FirstSeq set to the sequence in the name — a segment's first record,
// or the last record a snapshot covers.
func listSeqFiles(dir, prefix, suffix string) ([]SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var out []SegmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		seq, ok := parseSeqFileName(e.Name(), prefix, suffix)
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
		}
		out = append(out, SegmentInfo{Name: e.Name(), FirstSeq: seq, Bytes: info.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FirstSeq < out[j].FirstSeq })
	return out, nil
}
