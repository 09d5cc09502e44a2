package wal

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"time"

	"repro/internal/storage"
)

// The upgrade of an older build's data directory. Open is the only place
// this build reads what older builds wrote (FORMAT.md, "Upgraded at open"):
// recovery restores an older snapshot with readOlderSnapshot and replays an
// older frame with storage.Store.ApplyPayload, then upgrade rewrites the
// directory in this build's format before the manager serves or streams.
// Every other reader refuses an older payload with storage.ErrOlderFormat.
//
// The rewrite is a compaction in the order Compact keeps: a fresh, empty
// segment starts at the sequence after the last, so that every older segment
// is covered; a snapshot of the store at the last sequence is written,
// fsynced, renamed into place and verified; only then are the covered
// segments, then the older snapshots, removed. A crash before the new
// snapshot is in place leaves the older files, and the next open upgrades
// them again. A crash after it leaves a directory whose snapshot covers
// every older frame, so the replay never reads one: upgrade then removes
// what the interrupted upgrade had still to remove.

// recoverSnapshot loads the newest readable snapshot in dir for recovery:
// this build's, or else an older build's, which Open then upgrades.
func recoverSnapshot(dir string) (*Snapshot, error) {
	return latestSnapshot(dir, func(path string) (*Snapshot, error) {
		snap, err := readSnapshotFile(path, decodeSnapshot)
		if errors.Is(err, storage.ErrOlderFormat) {
			snap, err = readSnapshotFile(path, readOlderSnapshot)
		}
		return snap, err
	})
}

// readOlderSnapshot reads a snapshot stream an older build wrote, decoded.
// After a header before sample numbers come this build's chunks. After the
// older header come record chunks whose records carry their shapes, then
// session edge chunks and checkpoint sections: those are counted and never
// read, for every derived-state subscriber rebuilds from the records.
func readOlderSnapshot(r io.Reader) (*Snapshot, error) {
	s, p, err := openSnapshotStream(r)
	if err != nil {
		return nil, err
	}
	h, parent, err := storage.DecodeOlderSnapshotHeader(p)
	if err != nil {
		return nil, fmt.Errorf("sequence %d: %w", s.snap.Seq, err)
	}
	kind, decode := storage.ChunkRecords, storage.DecodeRecordChunk
	if parent {
		kind, decode = storage.ChunkParentRecords, storage.DecodeOlderRecordChunk
	}
	if err := s.chunks(h, s.stage(h, true), storage.OlderChunkCount, kind, decode); err != nil {
		return nil, err
	}
	s.snap.older = true
	for {
		if _, err := s.next(); err != nil {
			return s.snap, nil // the end, or a damaged tail of what is never read
		}
	}
}

// upgrade rewrites a directory Open recovered from an older build's files
// in this build's format: a fresh segment, then a compaction (see the file
// comment). Without older files it is the one rule that finishes a
// compaction or an upgrade a crash stopped after its snapshot was in place:
// when the newest segment is empty and named one past the snapshot's
// sequence, it removes the segments and snapshots that snapshot covers. Both
// start that segment before they remove anything (RemoveSegmentsCoveredBy),
// and so does the committer's first write past a snapshot; any other
// directory is left as it is.
func (m *Manager) upgrade(older bool) error {
	seq, start := m.snapshotSeq.Load(), time.Now()
	if !older {
		segs, err := m.log.Segments()
		if err != nil || seq == 0 || segs[len(segs)-1].FirstSeq != seq+1 || segs[len(segs)-1].Bytes != 0 {
			return err
		}
		_, err = m.log.RemoveSegmentsCoveredBy(seq)
		if err == nil {
			_, err = RemoveSnapshotsBefore(m.cfg.Dir, seq)
		}
		return err
	}
	next := m.log.LastSeq() + 1
	m.log.ioMu.Lock()
	err := m.log.rotateLocked(next)
	m.log.ioMu.Unlock()
	if err == nil {
		_, _, _, err = m.Compact()
	}
	if err != nil {
		return fmt.Errorf("wal: upgrading the older build's directory %s: %w", m.cfg.Dir, err)
	}
	slog.Info("upgraded an older build's data directory", "dir", m.cfg.Dir, "snapshot_seq", m.snapshotSeq.Load(), "took", time.Since(start))
	return nil
}
