package wal

import (
	"time"

	"repro/internal/telemetry"
)

// logMetrics instruments the log's fsync path. Its zero value is the
// uninstrumented log: every instrument is nil, and so inert. Fields are
// read-only after OpenLog.
type logMetrics struct {
	fsync *telemetry.Histogram
	// fsyncs is pre-labeled with this log's sync policy, so the counter can
	// be bumped without a label lookup on the sync path.
	fsyncs *telemetry.Counter
	// batchRecords is the group-commit batch-size distribution, a count
	// histogram (telemetry.CountBuckets): a bucket bound of 8 means "batches
	// of up to 8 records" and the _sum is the total number of batched records.
	batchRecords *telemetry.Histogram
	// fsyncsSaved counts records that shared another record's fsync under
	// the always policy — the fsyncs the group committer avoided compared to
	// one-fsync-per-record.
	fsyncsSaved *telemetry.Counter
}

func newLogMetrics(reg *telemetry.Registry, policy SyncPolicy) logMetrics {
	if reg == nil {
		return logMetrics{}
	}
	return logMetrics{
		fsync: reg.Histogram("cqms_wal_fsync_seconds",
			"Duration of WAL fsync calls.", nil),
		fsyncs: reg.CounterVec("cqms_wal_fsyncs_total",
			"WAL fsync calls by the sync policy the log runs under.", "policy").
			With(policy.String()),
		batchRecords: reg.Histogram("cqms_wal_group_commit_records",
			"Records per group-commit batch (le=\"8\" = batches of up to 8 records).",
			telemetry.CountBuckets(1, 2, 4, 8, 16, 32, 64, 128, 256, 512)),
		fsyncsSaved: reg.Counter("cqms_wal_fsyncs_saved_total",
			"Fsyncs avoided by group commit under the always policy: records acknowledged by another record's batch fsync."),
	}
}

// managerMetrics instruments the manager's append/snapshot/compaction paths.
// Its zero value, like logMetrics', is the uninstrumented manager.
type managerMetrics struct {
	append     *telemetry.Histogram
	snapshot   *telemetry.Histogram
	compaction *telemetry.Histogram
}

// enableMetrics registers the WAL families on reg: operation histograms,
// durable-state gauges computed at scrape time, and the outcome of the
// recovery that just ran. Called by Open once recovery has finished, before
// the manager is installed in the store's log slot, so the append histogram
// never races its own installation. A nil reg registers nothing.
func (m *Manager) enableMetrics(reg *telemetry.Registry, info *RecoveryInfo, recovery time.Duration) {
	if reg == nil {
		return
	}
	m.met = managerMetrics{
		append: reg.Histogram("cqms_wal_append_seconds",
			"Time to encode and sequence one mutation into the WAL (inside the commit lock; excludes the group-commit durability wait).", nil),
		snapshot: reg.Histogram("cqms_wal_snapshot_seconds",
			"Time to capture and write one full-store snapshot.", nil),
		compaction: reg.Histogram("cqms_wal_compaction_seconds",
			"Time of one compaction run: snapshot plus segment and snapshot pruning.", nil),
	}

	reg.GaugeFunc("cqms_wal_last_seq",
		"Sequence number of the most recently appended WAL record.",
		func() float64 { return float64(m.log.LastSeq()) })
	reg.GaugeFunc("cqms_wal_sequence_durable_lag",
		"Mutations sequenced in the WAL but not yet covered by a completed fsync (group-commit pipeline depth).",
		func() float64 {
			lag := float64(m.log.LastSeq()) - float64(m.log.DurableSeq())
			if lag < 0 {
				return 0
			}
			return lag
		})
	reg.GaugeFunc("cqms_wal_snapshot_seq",
		"Sequence the newest snapshot covers.",
		func() float64 { return float64(m.snapshotSeq.Load()) })
	reg.GaugeFunc("cqms_wal_appends_since_snapshot",
		"Logged mutations the newest snapshot does not cover.",
		func() float64 { return float64(m.pending()) })
	reg.GaugeFunc("cqms_wal_segments",
		"Number of on-disk WAL segments.",
		func() float64 {
			segs, err := listSegments(m.cfg.Dir)
			if err != nil {
				return -1
			}
			return float64(len(segs))
		})
	reg.GaugeFunc("cqms_wal_segment_bytes",
		"Total bytes across all on-disk WAL segments.",
		func() float64 {
			segs, err := listSegments(m.cfg.Dir)
			if err != nil {
				return -1
			}
			var total int64
			for _, s := range segs {
				total += s.Bytes
			}
			return float64(total)
		})

	// Recovery happened exactly once, in the Open that built this manager;
	// expose its outcome as constants so a scrape after restart shows what
	// the restart cost.
	recoverySeconds := recovery.Seconds()
	replayed := float64(info.Replayed)
	reg.GaugeFunc("cqms_wal_recovery_seconds",
		"Wall-clock duration of the recovery performed by the last Open.",
		func() float64 { return recoverySeconds })
	reg.GaugeFunc("cqms_wal_recovery_replayed_records",
		"Log records replayed beyond the snapshot during the last recovery.",
		func() float64 { return replayed })
}
