package miner

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/wire"
)

// FeedCheckpointVersion is the serialization version of the feed's WAL
// snapshot sidecar. Restore rejects versions it does not understand and the
// mutation bus falls back to a full rebuild scan. Version 1 was JSON and
// version 2 an incremental miner's itemset counters; version 3 is the
// multiset itself (internal/wire primitives):
//
//	sets count | per set: n uvarint | items count | items (sorted, unique)
//
// The transaction count is the sum of the n. Sets appear in no particular
// order.
const FeedCheckpointVersion = 3

// Checkpoint serialises the feed's multiset. It runs in the store's
// CaptureWithCheckpoints critical section, so it describes exactly the
// snapshotted records.
func (f *Feed) Checkpoint() (int, []byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	data := binary.AppendUvarint(nil, uint64(len(f.sets)))
	for _, s := range f.sets {
		data = binary.AppendUvarint(data, uint64(s.n))
		data = binary.AppendUvarint(data, uint64(len(s.items)))
		for _, item := range s.items {
			data = wire.AppendString(data, item)
		}
	}
	return FeedCheckpointVersion, data, nil
}

// Restore replaces the feed's multiset with a checkpointed one; the rules
// are derived again on the next read. The section arrives over the
// replication stream, so anything the commit path could not have produced —
// an unknown version, a set counted zero times, an empty or unsorted set, a
// set listed twice, a total that overflows, trailing bytes — is refused, and
// the bus falls back to the rebuild scan.
func (f *Feed) Restore(version int, data []byte) error {
	sets, numTx, err := decodeFeed(version, data)
	if err != nil {
		return err
	}
	f.install(sets, numTx)
	return nil
}

func decodeFeed(version int, data []byte) (map[string]*featureSet, int, error) {
	if version != FeedCheckpointVersion {
		return nil, 0, fmt.Errorf("miner: unknown feed checkpoint version %d", version)
	}
	r := wire.NewReader(data)
	n := r.Count(3) // n, items count, one item length
	sets := make(map[string]*featureSet, n)
	numTx := 0
	var key []byte
	for ; n > 0 && r.Err() == nil; n-- {
		s := &featureSet{n: int(r.Uvarint())}
		if s.n <= 0 || numTx > math.MaxInt-s.n {
			r.Fail(errors.New("set count out of range"))
			break
		}
		s.items = make([]string, r.Count(1))
		for i := range s.items {
			s.items[i] = r.String()
		}
		key = appendSetKey(key[:0], s.items)
		switch {
		case r.Err() != nil:
		case len(s.items) == 0:
			r.Fail(errors.New("empty feature set"))
		case !sortedUnique(s.items):
			r.Fail(errors.New("feature set not sorted and unique"))
		case sets[string(key)] != nil:
			r.Fail(errors.New("feature set listed twice"))
		default:
			sets[string(key)] = s
			numTx += s.n
		}
	}
	if err := r.Finish(); err != nil {
		return nil, 0, fmt.Errorf("miner: decoding feed checkpoint: %w", err)
	}
	return sets, numTx, nil
}
