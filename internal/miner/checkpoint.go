package miner

import (
	"encoding/binary"
	"fmt"

	"repro/internal/wire"
)

// FeedCheckpointVersion is the serialization version of the feed's WAL
// snapshot sidecar. Restore rejects versions it does not understand and the
// mutation bus falls back to a full rebuild scan. Version 1 was JSON;
// version 2 is the binary layout below (internal/wire primitives):
//
//	numTx varint | frozen bool | n x (itemset key, count) | n x vocabulary item |
//	n x (m x warm-up transaction item)
//
// It is the incremental miner's counters, whether still buffering the
// warm-up batch or already frozen.
const FeedCheckpointVersion = 2

// Checkpoint serialises the feed's state. It runs in the store's
// CaptureWithCheckpoints critical section, so the counts describe exactly the
// snapshotted records.
//
// A retired feed refuses to checkpoint: retirement means a full mining
// Result supersedes its rules, and that Result is in-memory only — it does
// not survive a restart. Restoring an empty retired feed would leave the
// recommender with no rule source at all until the next mining pass, which
// is strictly worse than the rebuild fallback (a fresh, active feed mined
// from the restored store). So retirement is deliberately not durable.
func (f *Feed) Checkpoint() (int, []byte, error) {
	f.mu.Lock()
	if f.retired {
		f.mu.Unlock()
		return 0, nil, fmt.Errorf("miner: feed is retired; recovery must rebuild an active feed")
	}
	// Encode under f.mu: the maps stay shared with the live miner, and only
	// bus callbacks (serialised with this checkpoint by the store's commit
	// lock) ever write them — but Rules() snapshots and cache invalidation
	// also take f.mu, so holding it keeps the state coherent.
	inc := f.inc
	data := binary.AppendVarint(nil, int64(inc.numTx))
	data = wire.AppendBool(data, inc.frozen)
	data = binary.AppendUvarint(data, uint64(len(inc.counts)))
	for key, n := range inc.counts {
		data = wire.AppendString(data, key)
		data = binary.AppendVarint(data, int64(n))
	}
	data = binary.AppendUvarint(data, uint64(len(inc.vocabulary)))
	for item := range inc.vocabulary {
		data = wire.AppendString(data, item)
	}
	data = binary.AppendUvarint(data, uint64(len(inc.warmupTx)))
	for _, tx := range inc.warmupTx {
		data = binary.AppendUvarint(data, uint64(len(tx)))
		for _, item := range tx {
			data = wire.AppendString(data, item)
		}
	}
	f.mu.Unlock()
	return FeedCheckpointVersion, data, nil
}

// Restore replaces the feed's state with a previously checkpointed one. An
// unknown version or decode failure is returned as an error so the caller
// falls back to the full rebuild scan.
func (f *Feed) Restore(version int, data []byte) error {
	if version != FeedCheckpointVersion {
		return fmt.Errorf("miner: unknown feed checkpoint version %d", version)
	}
	r := wire.NewReader(data)
	inc := NewIncrementalMiner(f.cfg, f.warmup)
	inc.numTx = r.Int()
	inc.frozen = r.Bool()
	for n := r.Count(2); n > 0 && r.Err() == nil; n-- { // key, count
		key := r.String()
		inc.counts[key] = r.Int()
	}
	for n := r.Count(1); n > 0 && r.Err() == nil; n-- {
		inc.vocabulary[r.String()] = true
	}
	if n := r.Count(1); n > 0 {
		inc.warmupTx = make([][]string, 0, n)
		for ; n > 0 && r.Err() == nil; n-- {
			tx := make([]string, r.Count(1))
			for i := range tx {
				tx[i] = r.String()
			}
			inc.warmupTx = append(inc.warmupTx, tx)
		}
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("miner: decoding feed checkpoint: %w", err)
	}
	f.mu.Lock()
	f.inc = inc
	f.retired = false
	f.gen++
	f.rules, f.rulesValid, f.rulesAt = nil, false, 0
	f.mu.Unlock()
	return nil
}
