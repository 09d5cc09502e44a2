// Package stats maintains incrementally updated, visibility-aware aggregates
// over the query log: per-(table, attribute) selection counts, per-(table,
// concrete-predicate) and join-predicate counts, fingerprint popularity and
// per-user/table activity. A Tracker subscribes to the storage mutation
// event bus, so every counter is adjusted in commit order as mutations are
// applied — the recommendation hot path reads O(candidates) counters instead
// of re-scanning the log per keystroke, which is the incremental-propagation
// argument of Youtopia's cooperative update-exchange model applied to the
// CQMS's derived state.
//
// Visibility model: counters are kept in buckets. The `all` bucket holds
// every record and serves admin principals; the `public` bucket holds
// VisibilityPublic records; one bucket per user holds that user's non-public
// records. A non-admin principal reads the public bucket merged with their
// own bucket. Group-visible queries of *other* users are therefore not
// counted for a group member — the tracker trades that sliver of visibility
// for O(1) bucket merges; endpoints that return actual records still enforce
// visibility exactly.
package stats

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/telemetry"
)

// itemCount is one counted completion candidate (an attribute or a
// predicate), remembering the lower-cased qualifying relation so reads can
// apply the recommender's context filter without reparsing the key.
type itemCount struct {
	count int
	rel   string // lower-cased qualifying relation, "" when unqualified
}

// joinCount is one counted join predicate with the lower-cased relation keys
// of its two sides.
type joinCount struct {
	count       int
	left, right string
}

// tableAgg aggregates everything about the queries referencing one table.
type tableAgg struct {
	count int            // queries referencing the table
	names map[string]int // live display casings
	attrs map[string]*itemCount
	preds map[string]*itemCount
	joins map[string]*joinCount
}

func newTableAgg() *tableAgg {
	return &tableAgg{
		names: make(map[string]int),
		attrs: make(map[string]*itemCount),
		preds: make(map[string]*itemCount),
		joins: make(map[string]*joinCount),
	}
}

// bucket is one visibility bucket of counters. Next to the exact counter
// maps it maintains one bounded top-K summary per listed dimension (see
// topk.go), so the listing reads — top tables, top users, top predicates,
// fingerprint popularity — never have to materialise or sort a full map.
type bucket struct {
	queries      int
	users        map[string]int
	fingerprints map[uint64]int
	tables       map[string]*tableAgg // key: lower-cased table name
	// preds counts concrete predicates once per occurrence in a record —
	// unlike the per-table aggregates, which count once per referenced
	// table — so log-wide "top predicates" listings are not inflated for
	// multi-table queries.
	preds map[string]int

	// Incrementally maintained top-K summaries over the maps above, updated
	// O(log capacity) per touched key as mutations apply.
	topTables       *topkSummary[string]
	topUsers        *topkSummary[string]
	topPreds        *topkSummary[string]
	topFingerprints *topkSummary[uint64]
}

func newBucket(capacity int) *bucket {
	return &bucket{
		users:           make(map[string]int),
		fingerprints:    make(map[uint64]int),
		tables:          make(map[string]*tableAgg),
		preds:           make(map[string]int),
		topTables:       newTopK[string](capacity),
		topUsers:        newTopK[string](capacity),
		topPreds:        newTopK[string](capacity),
		topFingerprints: newTopK[uint64](capacity),
	}
}

// reseed rebuilds every summary from the bucket's exact maps, giving each the
// tightest membership and miss bound possible for the current counts. Called
// after bulk construction (Rebuild, checkpoint Restore), where the
// incremental admission order could otherwise leave an inflated watermark.
func (b *bucket) reseed(capacity int) {
	tables := make(map[string]int, len(b.tables))
	for key, ta := range b.tables {
		tables[key] = ta.count
	}
	b.topTables = seedTopK(capacity, tables)
	b.topUsers = seedTopK(capacity, b.users)
	b.topPreds = seedTopK(capacity, b.preds)
	b.topFingerprints = seedTopK(capacity, b.fingerprints)
}

// empty reports whether the bucket holds no counted state at all — no
// queries and no stale summary entries — so owner buckets of churning
// users can be pruned without leaking heap or watermark state.
func (b *bucket) empty() bool {
	return b.queries == 0 &&
		b.topTables.len() == 0 && b.topUsers.len() == 0 &&
		b.topPreds.len() == 0 && b.topFingerprints.len() == 0
}

// bumpItem adjusts one candidate counter, deleting the key when it empties
// so removed queries do not leak zero-count entries.
func bumpItem(m map[string]*itemCount, key, rel string, delta int) {
	ic := m[key]
	if ic == nil {
		if delta <= 0 {
			return
		}
		ic = &itemCount{rel: rel}
		m[key] = ic
	}
	ic.count += delta
	if ic.count <= 0 {
		delete(m, key)
	}
}

func bumpJoin(m map[string]*joinCount, key, left, right string, delta int) {
	jc := m[key]
	if jc == nil {
		if delta <= 0 {
			return
		}
		jc = &joinCount{left: left, right: right}
		m[key] = jc
	}
	jc.count += delta
	if jc.count <= 0 {
		delete(m, key)
	}
}

// bumpCount adjusts a plain counter map, deleting emptied keys.
func bumpCount[K comparable](m map[K]int, key K, delta int) {
	if n := m[key] + delta; n > 0 {
		m[key] = n
	} else {
		delete(m, key)
	}
}

// relItem is a pre-rendered candidate key with its lower-cased qualifying
// relation, built once per record so the per-table loop in apply does no
// string work of its own.
type relItem struct {
	text string
	rel  string
}

// joinItem is a pre-rendered canonical join key with its two side relations.
type joinItem struct {
	key         string
	left, right string
}

// apply adds (delta=+1) or retracts (delta=-1) one record's contributions.
// A record contributes once per distinct table it references — mirroring the
// recommender's former per-table index scans, where a query referencing two
// context tables was visited (and counted) once per table. All name/text
// rendering happens once per record, before the table loop: apply runs under
// the store's commit lock, so it must not redo string builds per table.
func (b *bucket) apply(rec *storage.QueryRecord, delta int) {
	b.queries += delta
	bumpCount(b.users, rec.User, delta)
	b.topUsers.update(rec.User, b.users[rec.User])
	bumpCount(b.fingerprints, rec.Fingerprint, delta)
	b.topFingerprints.update(rec.Fingerprint, b.fingerprints[rec.Fingerprint])
	attrs := make([]relItem, 0, len(rec.Attributes))
	for _, a := range rec.Attributes {
		name := a.Attr
		if a.Rel != "" {
			name = a.Rel + "." + a.Attr
		}
		attrs = append(attrs, relItem{text: name, rel: strings.ToLower(a.Rel)})
	}
	var preds []relItem
	var joins []joinItem
	for _, p := range rec.Predicates {
		if p.IsJoin {
			joins = append(joins, joinItem{
				key:  CanonicalJoin(p),
				left: strings.ToLower(p.Rel), right: strings.ToLower(p.RightRel),
			})
			continue
		}
		text := PredicateText(p)
		bumpCount(b.preds, text, delta)
		b.topPreds.update(text, b.preds[text])
		preds = append(preds, relItem{text: text, rel: strings.ToLower(p.Rel)})
	}
	seen := make(map[string]bool, len(rec.Tables))
	for _, t := range rec.Tables {
		key := strings.ToLower(t)
		if seen[key] {
			continue
		}
		seen[key] = true
		ta := b.tables[key]
		if ta == nil {
			if delta <= 0 {
				continue
			}
			ta = newTableAgg()
			b.tables[key] = ta
		}
		ta.count += delta
		bumpCount(ta.names, t, delta)
		for _, a := range attrs {
			bumpItem(ta.attrs, a.text, a.rel, delta)
		}
		for _, p := range preds {
			bumpItem(ta.preds, p.text, p.rel, delta)
		}
		for _, j := range joins {
			bumpJoin(ta.joins, j.key, j.left, j.right, delta)
		}
		if ta.count <= 0 {
			delete(b.tables, key)
		}
		b.topTables.update(key, ta.count)
	}
}

// CanonicalJoin renders a join predicate with the two sides of an equi-join
// ordered deterministically, so "A.x = B.x" and "B.x = A.x" aggregate under
// one key. It is exactly the suggestion text the recommender emits.
func CanonicalJoin(pr storage.PredicateRow) string {
	left := pr.Rel + "." + pr.Attr
	right := pr.RightRel + "." + pr.RightAttr
	if pr.Op == "=" && left > right {
		left, right = right, left
	}
	return left + " " + pr.Op + " " + right
}

// PredicateText renders a concrete (non-join) predicate exactly as the
// recommender suggests and de-duplicates it. Counter keys, the recommender's
// scan fallback, and correction candidates all share this one format — keep
// them byte-identical through this helper.
func PredicateText(pr storage.PredicateRow) string {
	col := pr.Attr
	if pr.Rel != "" {
		col = pr.Rel + "." + pr.Attr
	}
	return col + " " + pr.Op + " " + pr.Const
}

// Tracker holds the incrementally maintained aggregates. It is safe for
// concurrent use: mutations arrive serialised under the store's commit lock,
// reads come from request-serving goroutines.
type Tracker struct {
	mu       sync.RWMutex
	capacity int // per-bucket per-dimension top-K summary capacity
	all      *bucket
	public   *bucket
	owners   map[string]*bucket // non-public records per owning user

	// readLatency, when EnableMetrics installed it, holds one histogram per
	// listing read ("tables", "users", "predicates") timing the full merge —
	// lock hold plus out-of-lock sort. Written once under mu, read under the
	// read lock by the hot paths.
	readLatency map[string]*telemetry.Histogram
}

// New returns an empty tracker. Use Attach to keep it synchronised with a
// store, or Rebuild to fill it from one once.
func New() *Tracker {
	return newWithCapacity(topKCapacity)
}

// newWithCapacity returns an empty tracker whose per-bucket top-K summaries
// track up to capacity keys per dimension. Tests pass small capacities to
// force evictions and non-zero miss bounds early.
func newWithCapacity(capacity int) *Tracker {
	return &Tracker{
		capacity: capacity,
		all:      newBucket(capacity),
		public:   newBucket(capacity),
		owners:   make(map[string]*bucket),
	}
}

// Attach builds a tracker over the store's current contents and subscribes
// it to the mutation event bus. Registration and the initial rebuild happen
// under the store's commit lock, so no mutation can slip between them; WAL
// replay keeps the tracker correct incrementally and a RestoreState triggers
// a full rebuild through the Reset hook. The tracker also offers the
// Checkpoint/Restore pair, so WAL snapshots carry its counters and recovery
// skips the rebuild when a checkpoint sidecar is present.
func Attach(store *storage.Store) *Tracker {
	return attachWithCapacity(store, topKCapacity)
}

// attachWithCapacity is Attach with the given per-bucket top-K summary
// capacity.
func attachWithCapacity(store *storage.Store, capacity int) *Tracker {
	t := newWithCapacity(capacity)
	rebuild := func() { t.Rebuild(store) }
	store.Subscribe("stats", t.OnMutation, storage.SubscribeOptions{
		Init: rebuild, Reset: rebuild,
		Checkpoint: t.Checkpoint, Restore: t.Restore,
	})
	return t
}

// Rebuild replaces the tracker's counters with a from-scratch aggregation
// over the store's current contents. The new counters are built off to the
// side and swapped in, so concurrent readers never observe a half-built
// state.
func (t *Tracker) Rebuild(store *storage.Store) {
	all, public := newBucket(t.capacity), newBucket(t.capacity)
	owners := make(map[string]*bucket)
	store.Snapshot().Scan(storage.Principal{Admin: true}, func(rec *storage.QueryRecord) bool {
		all.apply(rec, 1)
		if rec.Visibility == storage.VisibilityPublic {
			public.apply(rec, 1)
		} else {
			b := owners[rec.User]
			if b == nil {
				b = newBucket(t.capacity)
				owners[rec.User] = b
			}
			b.apply(rec, 1)
		}
		return true
	})
	// Reseed the summaries from the final maps: the insertion-order build
	// above can leave an inflated miss watermark, while a from-scratch seed
	// yields the exact top-capacity membership and tightest bound.
	all.reseed(t.capacity)
	public.reseed(t.capacity)
	for _, b := range owners {
		b.reseed(t.capacity)
	}
	t.mu.Lock()
	t.all, t.public, t.owners = all, public, owners
	t.mu.Unlock()
}

// OnMutation adjusts the counters for one committed mutation. It is the
// tracker's bus subscription and runs under the store's commit lock; ops
// that do not change counted state (annotations, maintenance flags, runtime
// stats) are no-ops.
func (t *Tracker) OnMutation(m *storage.Mutation) {
	switch m.Op {
	case storage.OpPut:
		t.mu.Lock()
		// Replay of a Put over an existing ID (snapshot/segment overlap)
		// replaces the older record; retract it first.
		if prev := m.Prev(); prev != nil {
			t.removeLocked(prev)
		}
		if next := m.Next(); next != nil {
			t.addLocked(next)
		}
		t.mu.Unlock()
	case storage.OpDelete:
		if prev := m.Prev(); prev != nil {
			t.mu.Lock()
			t.removeLocked(prev)
			t.mu.Unlock()
		}
	case storage.OpSetVisibility:
		prev, next := m.Prev(), m.Next()
		if prev == nil || next == nil {
			return
		}
		prevPub := prev.Visibility == storage.VisibilityPublic
		nextPub := next.Visibility == storage.VisibilityPublic
		if prevPub == nextPub {
			return // same bucket; counted contents unchanged
		}
		t.mu.Lock()
		t.specificFor(prev).apply(prev, -1)
		t.pruneOwner(prev.User)
		t.specificFor(next).apply(next, 1)
		t.mu.Unlock()
	case storage.OpReplaceText:
		prev, next := m.Prev(), m.Next()
		if prev == nil || next == nil {
			return
		}
		t.mu.Lock()
		t.removeLocked(prev)
		t.addLocked(next)
		t.mu.Unlock()
	}
}

func (t *Tracker) addLocked(rec *storage.QueryRecord) {
	t.all.apply(rec, 1)
	t.specificFor(rec).apply(rec, 1)
}

func (t *Tracker) removeLocked(rec *storage.QueryRecord) {
	t.all.apply(rec, -1)
	t.specificFor(rec).apply(rec, -1)
	t.pruneOwner(rec.User)
}

// specificFor returns (creating if needed) the visibility bucket a record's
// contributions belong to besides `all`.
func (t *Tracker) specificFor(rec *storage.QueryRecord) *bucket {
	if rec.Visibility == storage.VisibilityPublic {
		return t.public
	}
	b := t.owners[rec.User]
	if b == nil {
		b = newBucket(t.capacity)
		t.owners[rec.User] = b
	}
	return b
}

// pruneOwner drops a user's bucket once it holds nothing — no queries and no
// summary entries — so churning users (deletes, visibility flips to public)
// do not leak empty buckets or stale top-K heap/watermark state.
func (t *Tracker) pruneOwner(user string) {
	if b := t.owners[user]; b != nil && b.empty() {
		delete(t.owners, user)
	}
}

// bucketsFor returns the buckets visible to the principal: admins read the
// whole log, everyone else the public bucket merged with their own
// non-public queries. Callers must hold the read lock.
func (t *Tracker) bucketsFor(p storage.Principal) []*bucket {
	if p.Admin {
		return []*bucket{t.all}
	}
	bs := []*bucket{t.public}
	if b := t.owners[p.User]; b != nil {
		bs = append(bs, b)
	}
	return bs
}

// ---------------------------------------------------------------------------
// Read API
// ---------------------------------------------------------------------------

// QueryCount returns how many logged queries the principal's counters cover.
func (t *Tracker) QueryCount(p storage.Principal) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, b := range t.bucketsFor(p) {
		n += b.queries
	}
	return n
}

// observeRead times one listing read; reads capture their histogram under
// the read lock they already hold and observe after the out-of-lock merge.
func (t *Tracker) histogramLocked(read string) *telemetry.Histogram {
	if t.readLatency == nil {
		return nil
	}
	return t.readLatency[read]
}

// TableCounts returns per-table reference counts visible to the principal,
// sorted by descending count then name — the same shape as
// storage.TableCounts. The listing is served from the maintained top-K
// summaries: only keys a visible bucket tracks are merged (counts probed
// exactly from the counter maps), so the read costs O(capacity log capacity)
// regardless of how many tables the log references, and the lock is released
// before any sorting happens. Tables omitted by every visible summary have
// true count ≤ ApproxBounds(p).Tables.
func (t *Tracker) TableCounts(p storage.Principal) []storage.TableCount {
	start := time.Now()
	type agg struct {
		key   string
		count int
		names map[string]int
	}
	t.mu.RLock()
	h := t.histogramLocked("tables")
	buckets := t.bucketsFor(p)
	merged := make(map[string]*agg)
	for bi, b := range buckets {
		for _, e := range b.topTables.heap {
			if merged[e.key] != nil {
				continue
			}
			// The entry's count is already the exact count in its own
			// bucket; only the other buckets need probing.
			a := &agg{key: e.key, count: e.count, names: make(map[string]int, 1)}
			for bj, b2 := range buckets {
				if ta := b2.tables[e.key]; ta != nil {
					if bj != bi {
						a.count += ta.count
					}
					for name, n := range ta.names {
						a.names[name] += n
					}
				}
			}
			merged[e.key] = a
		}
	}
	out := make([]storage.TableCount, 0, len(merged))
	tails := make([]map[string]int, 0, len(merged))
	for _, a := range merged {
		out = append(out, storage.TableCount{Table: a.key, Count: a.count})
		tails = append(tails, a.names)
	}
	t.mu.RUnlock()
	// Display-name resolution and sorting run outside the lock; the name
	// maps were copied above, so they cannot be mutated under us.
	for i := range out {
		out[i].Table = storage.PickDisplayName(tails[i], out[i].Table)
	}
	slices.SortFunc(out, func(a, b storage.TableCount) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return strings.Compare(a.Table, b.Table)
	})
	if h != nil {
		h.Observe(time.Since(start))
	}
	return out
}

// UserCount pairs a user with how many of their queries the principal's
// counters cover.
type UserCount struct {
	User    string
	Queries int
}

// UserActivity returns per-user query counts visible to the principal,
// sorted by descending count then user. Served from the maintained top-K
// summaries: the read merges at most capacity tracked users per visible
// bucket — flat in the user population — and sorts outside the lock. Users
// omitted by every visible summary have true count ≤ ApproxBounds(p).Users.
func (t *Tracker) UserActivity(p storage.Principal) []UserCount {
	start := time.Now()
	t.mu.RLock()
	h := t.histogramLocked("users")
	buckets := t.bucketsFor(p)
	out := make([]UserCount, 0, t.capacity)
	seen := make(map[string]bool, t.capacity)
	for bi, b := range buckets {
		for _, e := range b.topUsers.heap {
			if seen[e.key] {
				continue
			}
			seen[e.key] = true
			// The entry mirrors its own bucket's exact count; only the other
			// buckets need probing, so a single-bucket (admin) read never
			// touches the full counter maps.
			n := e.count
			for bj, b2 := range buckets {
				if bj != bi {
					n += b2.users[e.key]
				}
			}
			out = append(out, UserCount{User: e.key, Queries: n})
		}
	}
	t.mu.RUnlock()
	slices.SortFunc(out, func(a, b UserCount) int {
		if a.Queries != b.Queries {
			return cmp.Compare(b.Queries, a.Queries)
		}
		return strings.Compare(a.User, b.User)
	})
	if h != nil {
		h.Observe(time.Since(start))
	}
	return out
}

// ItemCount is one (item, count) pair of a bounded listing read.
type ItemCount struct {
	Item  string
	Count int
}

// TopPredicates returns the k most used concrete (non-join) predicates
// visible to the principal, counted once per occurrence in a record (no
// per-table multiplicity), sorted by descending count then text. k ≤ 0 means
// every tracked predicate. Predicates omitted by every visible summary have
// true count ≤ ApproxBounds(p).Predicates.
func (t *Tracker) TopPredicates(p storage.Principal, k int) []ItemCount {
	start := time.Now()
	t.mu.RLock()
	h := t.histogramLocked("predicates")
	buckets := t.bucketsFor(p)
	out := make([]ItemCount, 0, t.capacity)
	seen := make(map[string]bool, t.capacity)
	for bi, b := range buckets {
		for _, e := range b.topPreds.heap {
			if seen[e.key] {
				continue
			}
			seen[e.key] = true
			n := e.count
			for bj, b2 := range buckets {
				if bj != bi {
					n += b2.preds[e.key]
				}
			}
			out = append(out, ItemCount{Item: e.key, Count: n})
		}
	}
	t.mu.RUnlock()
	slices.SortFunc(out, func(a, b ItemCount) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return strings.Compare(a.Item, b.Item)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	if h != nil {
		h.Observe(time.Since(start))
	}
	return out
}

// MaxFingerprintCount returns the highest per-fingerprint popularity count
// visible to the principal — the popularity normaliser of the similar-query
// ranking — served from the summaries in O(capacity). It can undershoot the
// true maximum only if every copy of the most popular template is untracked,
// i.e. by at most ApproxBounds(p).Fingerprints.
func (t *Tracker) MaxFingerprintCount(p storage.Principal) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	buckets := t.bucketsFor(p)
	max := 0
	for bi, b := range buckets {
		for _, e := range b.topFingerprints.heap {
			n := e.count
			for bj, b2 := range buckets {
				if bj != bi {
					n += b2.fingerprints[e.key]
				}
			}
			if n > max {
				max = n
			}
		}
	}
	return max
}

// FingerprintCountsFor returns the principal-visible popularity counts of
// exactly the requested fingerprints, probed from the exact counter maps in
// O(len(fps)), independent of how many distinct templates the log holds.
func (t *Tracker) FingerprintCountsFor(p storage.Principal, fps []uint64) map[uint64]int {
	out := make(map[uint64]int, len(fps))
	t.mu.RLock()
	defer t.mu.RUnlock()
	buckets := t.bucketsFor(p)
	for _, fp := range fps {
		if _, done := out[fp]; done {
			continue
		}
		n := 0
		for _, b := range buckets {
			n += b.fingerprints[fp]
		}
		if n > 0 {
			out[fp] = n
		}
	}
	return out
}

// ApproxBounds reports, per listing dimension, the count threshold under
// which the principal's bounded reads may omit an item: any table / user /
// predicate / fingerprint absent from the corresponding listing has true
// count ≤ the reported bound. A zero bound means the listing is complete and
// exact. Bounds are summed across the principal's visible buckets (an item
// untracked in both buckets can hide at most bound_a + bound_b occurrences).
type ApproxBounds struct {
	Tables       int
	Users        int
	Predicates   int
	Fingerprints int
	// Capacity is the per-bucket per-dimension summary size in effect.
	Capacity int
}

// Bounds returns the principal's current approximation bounds (see
// ApproxBounds).
func (t *Tracker) Bounds(p storage.Principal) ApproxBounds {
	t.mu.RLock()
	defer t.mu.RUnlock()
	b := ApproxBounds{Capacity: t.capacity}
	for _, bk := range t.bucketsFor(p) {
		b.Tables += bk.topTables.missedBound
		b.Users += bk.topUsers.missedBound
		b.Predicates += bk.topPreds.missedBound
		b.Fingerprints += bk.topFingerprints.missedBound
	}
	return b
}

// LowerSet builds the lower-cased context-table filter set shared by the
// counter reads here and the recommender's scan fallback, so table-key
// normalization cannot diverge between the two paths.
func LowerSet(tables []string) map[string]bool {
	set := make(map[string]bool, len(tables))
	for _, t := range tables {
		set[strings.ToLower(t)] = true
	}
	return set
}

// ColumnCounts returns attribute usage counts over the queries referencing
// any of the context tables, visible to the principal. It mirrors the
// recommender's former per-table scans exactly: a query referencing two
// context tables contributes twice, and attributes qualified with a relation
// outside the context are skipped.
func (t *Tracker) ColumnCounts(p storage.Principal, tables []string) map[string]int {
	ctx := LowerSet(tables)
	out := make(map[string]int)
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, b := range t.bucketsFor(p) {
		for _, tbl := range tables {
			ta := b.tables[strings.ToLower(tbl)]
			if ta == nil {
				continue
			}
			for name, ic := range ta.attrs {
				if ic.rel != "" && !ctx[ic.rel] {
					continue
				}
				out[name] += ic.count
			}
		}
	}
	return out
}

// PredicateCounts returns concrete (non-join) predicate usage counts over
// the queries referencing any of the context tables, visible to the
// principal, keyed by the ready-to-insert predicate text.
func (t *Tracker) PredicateCounts(p storage.Principal, tables []string) map[string]int {
	ctx := LowerSet(tables)
	out := make(map[string]int)
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, b := range t.bucketsFor(p) {
		for _, tbl := range tables {
			ta := b.tables[strings.ToLower(tbl)]
			if ta == nil {
				continue
			}
			for text, ic := range ta.preds {
				if ic.rel != "" && !ctx[ic.rel] {
					continue
				}
				out[text] += ic.count
			}
		}
	}
	return out
}

// JoinCounts returns join-predicate usage counts over the queries
// referencing any of the context tables, visible to the principal, keyed by
// the canonical join text. Joins whose two sides are not both context tables
// are skipped.
func (t *Tracker) JoinCounts(p storage.Principal, tables []string) map[string]int {
	ctx := LowerSet(tables)
	out := make(map[string]int)
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, b := range t.bucketsFor(p) {
		for _, tbl := range tables {
			ta := b.tables[strings.ToLower(tbl)]
			if ta == nil {
				continue
			}
			for text, jc := range ta.joins {
				if !ctx[jc.left] || !ctx[jc.right] {
					continue
				}
				out[text] += jc.count
			}
		}
	}
	return out
}

// EnableMetrics registers scrape-time gauges over the tracker's aggregate
// sizes. A nil registry is a no-op.
func (t *Tracker) EnableMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("cqms_stats_tracked_tables",
		"Distinct tables the incremental stats tracker counts.",
		func() float64 {
			t.mu.RLock()
			defer t.mu.RUnlock()
			return float64(len(t.all.tables))
		})
	reg.GaugeFunc("cqms_stats_tracked_users",
		"Distinct users the incremental stats tracker counts.",
		func() float64 {
			t.mu.RLock()
			defer t.mu.RUnlock()
			return float64(len(t.all.users))
		})
	reg.GaugeFunc("cqms_stats_owner_buckets",
		"Per-owner visibility buckets the tracker currently holds.",
		func() float64 {
			t.mu.RLock()
			defer t.mu.RUnlock()
			return float64(len(t.owners))
		})
	// Top-K summary health on the admin (`all`) bucket: how many keys each
	// dimension tracks and the miss watermark — the count under which a
	// listing may omit items (0 = listings are complete and exact).
	tracked := reg.GaugeFuncVec("cqms_stats_topk_tracked",
		"Keys tracked by the all-bucket top-K summary, per dimension.", "dimension")
	bound := reg.GaugeFuncVec("cqms_stats_topk_miss_bound",
		"Count threshold under which the all-bucket listing may omit items, per dimension (0 = exact).",
		"dimension")
	summaries := map[string]func(b *bucket) (tracked, bound int){
		"tables":       func(b *bucket) (int, int) { return b.topTables.len(), b.topTables.missedBound },
		"users":        func(b *bucket) (int, int) { return b.topUsers.len(), b.topUsers.missedBound },
		"predicates":   func(b *bucket) (int, int) { return b.topPreds.len(), b.topPreds.missedBound },
		"fingerprints": func(b *bucket) (int, int) { return b.topFingerprints.len(), b.topFingerprints.missedBound },
	}
	for dim, read := range summaries {
		read := read
		tracked.With(func() float64 {
			t.mu.RLock()
			defer t.mu.RUnlock()
			n, _ := read(t.all)
			return float64(n)
		}, dim)
		bound.With(func() float64 {
			t.mu.RLock()
			defer t.mu.RUnlock()
			_, b := read(t.all)
			return float64(b)
		}, dim)
	}
	readVec := reg.HistogramVec("cqms_stats_read_seconds",
		"Bounded stats listing read latency (summary merge + out-of-lock sort), per read.",
		telemetry.DefBuckets, "read")
	t.mu.Lock()
	t.readLatency = map[string]*telemetry.Histogram{
		"tables":     readVec.With("tables"),
		"users":      readVec.With("users"),
		"predicates": readVec.With("predicates"),
	}
	t.mu.Unlock()
}
