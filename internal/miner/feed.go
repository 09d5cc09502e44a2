package miner

import (
	"encoding/binary"
	"slices"
	"sync"

	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Feed is the miner's one association-rule source: an exact multiset of the
// distinct feature sets in the log, kept current by the storage mutation
// event bus. A logged query adds its feature set, a deletion retracts it and
// a text repair swaps the old set for the new one, so the multiset always
// describes exactly the store's records with a non-empty feature set — on
// the live path, through WAL replay, and after the rebuild scan a snapshot
// restore runs. Query logs repeat themselves (queries are debugged once and
// re-used), so the distinct sets are few even when the records are many, and
// Apriori counted over the sets weighted by their multiplicity yields exactly
// the support counts of Apriori over every record (MineAssociationRules, the
// oracle the tests hold the feed to).
//
// Rules are derived by Refresh, which is the whole mining pass; Rules returns
// the last derivation, so served rules are at most one pass stale.
type Feed struct {
	cfg AssocConfig

	mu    sync.Mutex
	sets  map[string]*featureSet // by appendSetKey of the items
	numTx int                    // the sum of every set's n
	buf   []byte                 // key scratch for the commit path
	seq   uint64                 // bumped by every change; orders derivations

	rules    []Rule
	derived  bool   // rules holds a derivation of the current multiset
	rulesSeq uint64 // seq the rules were derived at, or the multiset installed at
}

// featureSet is one distinct feature set and the number of records carrying
// it. items is sorted and unique and never modified.
type featureSet struct {
	items []string
	n     int
}

// NewFeed returns an un-attached, empty feed.
func NewFeed(cfg AssocConfig) *Feed {
	return &Feed{cfg: cfg, sets: make(map[string]*featureSet)}
}

// Attach seeds the feed from the store's current contents and subscribes it
// to the mutation bus; it returns the unsubscribe function. Seeding runs
// under the store's commit lock, so no submission can slip between the seed
// scan and the subscription. A snapshot restore re-seeds the same way: the
// scan costs a few milliseconds per 10^4 records, so the feed has no
// checkpoint.
func (f *Feed) Attach(store *storage.Store) (cancel func()) {
	rebuild := func() { f.rebuild(store) }
	return store.Subscribe("miner-feed", f.onMutation, storage.SubscribeOptions{Init: rebuild, Reset: rebuild})
}

// onMutation is the feed's bus subscription; it runs under the store's
// commit lock. A put (a replayed one may replace a record), a deletion and a
// text repair retract the version they replace and add the one they
// produce; no other op changes a record's features.
func (f *Feed) onMutation(m *storage.Mutation) {
	switch m.Op {
	case storage.OpPut, storage.OpDelete, storage.OpReplaceText:
	default:
		return
	}
	prev, next := m.Prev(), m.Next()
	f.mu.Lock()
	if prev != nil {
		f.addLocked(prev.Features, -1)
	}
	if next != nil {
		f.addLocked(next.Features, 1)
	}
	f.mu.Unlock()
}

// rebuild replaces the feed's multiset with one counted from the store and
// drops the derived rules, including those of a Refresh still deriving from
// the multiset replaced.
func (f *Feed) rebuild(store *storage.Store) {
	g := NewFeed(f.cfg)
	store.Snapshot().Scan(storage.Principal{Admin: true}, func(rec *storage.QueryRecord) bool {
		g.addLocked(rec.Features, 1)
		return true
	})
	f.mu.Lock()
	f.sets, f.numTx = g.sets, g.numTx
	f.seq++
	f.rules, f.derived, f.rulesSeq = nil, false, f.seq
	f.mu.Unlock()
}

// Add counts one feature transaction, as a logged query does.
func (f *Feed) Add(features []string) {
	f.mu.Lock()
	f.addLocked(features, 1)
	f.mu.Unlock()
}

// addLocked adds delta (+1 or -1) records carrying the feature set. An empty
// set is not a transaction. Finding an existing set allocates nothing: the
// key is built in the reused buffer and the map lookup converts it without a
// copy.
func (f *Feed) addLocked(features []string, delta int) {
	if len(features) == 0 {
		return
	}
	if !sortedUnique(features) {
		features = normalize(features)
	}
	f.buf = appendSetKey(f.buf[:0], features)
	s := f.sets[string(f.buf)]
	switch {
	case s != nil:
		s.n += delta
		if s.n == 0 {
			delete(f.sets, string(f.buf))
		}
	case delta > 0:
		f.sets[string(f.buf)] = &featureSet{items: features, n: delta}
	default:
		return // retracting a set the feed never counted: nothing to undo
	}
	f.numTx += delta
	f.seq++
}

// appendSetKey appends the set's map key: each item length-prefixed, so no
// two sets share a key whatever bytes their items hold.
func appendSetKey(dst []byte, items []string) []byte {
	for _, item := range items {
		dst = binary.AppendUvarint(dst, uint64(len(item)))
		dst = append(dst, item...)
	}
	return dst
}

// sortedUnique reports whether items is strictly increasing — the shape
// sql.Analysis.FeatureSet produces.
func sortedUnique(items []string) bool {
	for i := 1; i < len(items); i++ {
		if items[i-1] >= items[i] {
			return false
		}
	}
	return true
}

// normalize returns a sorted, de-duplicated copy of items.
func normalize(items []string) []string {
	out := slices.Clone(items)
	slices.Sort(out)
	return slices.Compact(out)
}

// Refresh is the mining pass: it re-derives the rules from the current
// multiset, installs them as what Rules returns, and returns them with the
// transaction count they were derived over. The sets are copied under the
// feed's lock and the derivation runs outside it: bus callbacks take the lock
// while holding the store's commit lock, so an Apriori pass under it would
// stall every writer.
func (f *Feed) Refresh() *Result {
	f.mu.Lock()
	seq, numTx := f.seq, f.numTx
	sets := make([]featureSet, 0, len(f.sets))
	for _, s := range f.sets {
		sets = append(sets, *s)
	}
	f.mu.Unlock()

	rules := deriveRules(sets, numTx, f.cfg)

	f.mu.Lock()
	// Rules derived from a later state — by a concurrent Refresh — stay.
	if seq >= f.rulesSeq {
		f.rules, f.derived, f.rulesSeq = rules, true, seq
	}
	f.mu.Unlock()
	return &Result{Rules: rules, TransactionCount: numTx}
}

// Rules returns the rules of the last Refresh. A feed with no rules yet —
// never derived since it was built or rebuilt, or derived from a log that
// has changed since and yielded none — refreshes first, so a young log gets
// rules before its first mining pass; otherwise a read never derives.
func (f *Feed) Rules() []Rule {
	f.mu.Lock()
	if f.derived && (len(f.rules) > 0 || f.rulesSeq == f.seq) {
		rules := f.rules
		f.mu.Unlock()
		return rules
	}
	f.mu.Unlock()
	return f.Refresh().Rules
}

// NumTransactions returns how many records with a non-empty feature set the
// feed counts.
func (f *Feed) NumTransactions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.numTx
}

// NumSets returns how many distinct feature sets the feed counts.
func (f *Feed) NumSets() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sets)
}

// EnableMetrics registers scrape-time gauges over the feed's state. A nil
// registry is a no-op.
func (f *Feed) EnableMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("cqms_miner_feed_transactions",
		"Records with a non-empty feature set the association-rule feed counts.",
		func() float64 { return float64(f.NumTransactions()) })
	reg.GaugeFunc("cqms_miner_feed_sets",
		"Distinct feature sets the association-rule feed counts.",
		func() float64 { return float64(f.NumSets()) })
}

// deriveRules is Apriori over distinct feature sets weighted by their
// multiplicity. Singletons are counted first; itemsets of two up to
// MaxItemsetSize items are then enumerated only among each set's frequent
// items, which is exact because every subset of a frequent itemset is
// frequent. The counts are those countItemsets computes over every record,
// so the rules are MineAssociationRules'.
func deriveRules(sets []featureSet, numTx int, cfg AssocConfig) []Rule {
	if numTx == 0 {
		return nil
	}
	minCount := max(int(cfg.MinSupport*float64(numTx)), 1)
	maxSize := max(cfg.MaxItemsetSize, 2)

	counts := make(map[string]int)
	for _, s := range sets {
		for _, item := range s.items {
			counts[item] += s.n
		}
	}
	for item, c := range counts {
		if c < minCount {
			delete(counts, item)
		}
	}

	multi := make(map[string]int)
	var frequent []string // the current set's frequent items
	var key []byte        // the itemset being extended, as itemsetKey spells it
	var n int             // the current set's multiplicity
	var extend func(start, size int)
	extend = func(start, size int) {
		mark := len(key)
		for i := start; i < len(frequent); i++ {
			if size > 0 {
				key = append(key, ',')
			}
			key = append(key, frequent[i]...)
			if size > 0 {
				multi[string(key)] += n
			}
			if size+1 < maxSize {
				extend(i+1, size+1)
			}
			key = key[:mark]
		}
	}
	for _, s := range sets {
		frequent = frequent[:0]
		for _, item := range s.items {
			if _, ok := counts[item]; ok {
				frequent = append(frequent, item)
			}
		}
		n = s.n
		extend(0, 0)
	}
	for k, c := range multi {
		if c >= minCount {
			counts[k] = c
		}
	}
	return rulesFromCounts(counts, numTx, cfg)
}
