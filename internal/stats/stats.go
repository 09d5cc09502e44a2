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

// counter is one listed dimension of a bucket: the exact count per key and
// the top-K summary over them (see topk.go).
type counter[K cmp.Ordered] struct {
	counts map[K]int
	top    *topkSummary[K]
}

// add adjusts key's count by d, deleting the key when it empties. With
// track, the summary is re-offered the new count, as live apply requires;
// Rebuild adds without and reseeds once at the end. It is the one place a
// count and its summary are kept in step.
func (c *counter[K]) add(key K, d int, track bool) {
	n := bumpCount(c.counts, key, d)
	if track {
		c.top.update(key, n)
	}
}

// bucket is one visibility bucket of counters. Every listed dimension keeps
// a bounded top-K summary next to its exact counts, so the listing reads —
// top tables, top users, top predicates, fingerprint popularity — never have
// to materialise or sort a full map.
type bucket struct {
	queries      int
	users        counter[string]
	fingerprints counter[uint64]
	// preds counts concrete predicates once per occurrence in a record —
	// unlike the per-table aggregates, which count once per referenced
	// table — so log-wide "top predicates" listings are not inflated for
	// multi-table queries.
	preds     counter[string]
	tables    map[string]*tableAgg // key: lower-cased table name
	topTables *topkSummary[string] // over tables[key].count
}

// newBucket returns a bucket with empty counts and no summaries yet: reseed
// derives them.
func newBucket() *bucket {
	return &bucket{
		users:        counter[string]{counts: make(map[string]int)},
		fingerprints: counter[uint64]{counts: make(map[uint64]int)},
		preds:        counter[string]{counts: make(map[string]int)},
		tables:       make(map[string]*tableAgg),
	}
}

// reseed rebuilds every summary from the bucket's exact counts, giving each
// the tightest membership and miss bound possible for them, and returns b.
// Rebuild calls it after bulk construction, where the incremental admission
// order could otherwise leave an inflated watermark.
func (b *bucket) reseed(capacity int) *bucket {
	tables := make(map[string]int, len(b.tables))
	for key, ta := range b.tables {
		tables[key] = ta.count
	}
	b.topTables = seedTopK(capacity, tables)
	b.users.top = seedTopK(capacity, b.users.counts)
	b.preds.top = seedTopK(capacity, b.preds.counts)
	b.fingerprints.top = seedTopK(capacity, b.fingerprints.counts)
	return b
}

// empty reports whether the bucket holds no counted state at all — no
// queries and no stale summary entries — so owner buckets of churning
// users can be pruned without leaking heap or watermark state.
func (b *bucket) empty() bool {
	return b.queries == 0 &&
		b.topTables.len() == 0 && b.users.top.len() == 0 &&
		b.preds.top.len() == 0 && b.fingerprints.top.len() == 0
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

// bumpCount adjusts a plain counter map, deleting emptied keys, and returns
// the new count.
func bumpCount[K comparable](m map[K]int, key K, delta int) int {
	n := m[key] + delta
	if n > 0 {
		m[key] = n
	} else {
		delete(m, key)
	}
	return n
}

// relItem is a pre-rendered candidate key with its lower-cased qualifying
// relation.
type relItem struct {
	text string
	rel  string
}

// joinItem is a pre-rendered canonical join key with its two side relations.
type joinItem struct {
	key         string
	left, right string
}

// shapeKeys is every counter key one query shape contributes to a bucket,
// rendered once: the template fingerprint, the attribute, concrete-predicate
// and join keys, and the distinct lower-cased tables with the casing each
// first appears in. It is the one definition of the key format, for live
// apply and for Rebuild alike.
type shapeKeys struct {
	fingerprint uint64
	attrs       []relItem
	preds       []relItem // concrete predicates, once per occurrence
	joins       []joinItem
	tables      []tableName
}

// tableName is a lower-cased table key with the casing it first appears in.
type tableName struct {
	key, name string
}

func keysOf(sh *storage.QueryShape) shapeKeys {
	k := shapeKeys{fingerprint: sh.Fingerprint, attrs: make([]relItem, 0, len(sh.Attributes))}
	for _, a := range sh.Attributes {
		name := a.Attr
		if a.Rel != "" {
			name = a.Rel + "." + a.Attr
		}
		k.attrs = append(k.attrs, relItem{text: name, rel: strings.ToLower(a.Rel)})
	}
	for _, p := range sh.Predicates {
		if p.IsJoin {
			key, left, right := canonicalJoin(p)
			k.joins = append(k.joins, joinItem{key: key, left: strings.ToLower(left), right: strings.ToLower(right)})
			continue
		}
		k.preds = append(k.preds, relItem{text: PredicateText(p), rel: strings.ToLower(p.Rel)})
	}
tables:
	for _, t := range sh.Tables {
		key := strings.ToLower(t)
		for _, seen := range k.tables {
			if seen.key == key {
				continue tables
			}
		}
		k.tables = append(k.tables, tableName{key: key, name: t})
	}
	return k
}

// apply adds (delta=+1) or retracts (delta=-1) one record's contributions,
// k being the keys of its shape, keeping the top-K summaries current key by
// key. It runs under the store's commit lock.
func (b *bucket) apply(rec *storage.QueryRecord, k *shapeKeys, delta int) {
	b.queries += delta
	b.users.add(rec.User, delta, true)
	b.add(k, delta, true)
}

// add counts n copies of a shape's keys (n < 0 retracts them), track as for
// counter.add. A shape contributes to the table aggregates once per distinct
// table it references, so a query referencing two context tables counts once
// per table in the context reads.
func (b *bucket) add(k *shapeKeys, n int, track bool) {
	b.fingerprints.add(k.fingerprint, n, track)
	for _, p := range k.preds {
		b.preds.add(p.text, n, track)
	}
	for _, t := range k.tables {
		ta := b.tables[t.key]
		if ta == nil {
			if n <= 0 {
				continue
			}
			ta = newTableAgg()
			b.tables[t.key] = ta
		}
		ta.count += n
		bumpCount(ta.names, t.name, n)
		for _, a := range k.attrs {
			bumpItem(ta.attrs, a.text, a.rel, n)
		}
		for _, p := range k.preds {
			bumpItem(ta.preds, p.text, p.rel, n)
		}
		for _, j := range k.joins {
			bumpJoin(ta.joins, j.key, j.left, j.right, n)
		}
		if ta.count <= 0 {
			delete(b.tables, t.key)
		}
		if track {
			b.topTables.update(t.key, ta.count)
		}
	}
}

// CanonicalJoin renders a join predicate with the two sides of an equi-join
// ordered deterministically, so "A.x = B.x" and "B.x = A.x" aggregate under
// one key. It is exactly the suggestion text the recommender emits.
func CanonicalJoin(pr storage.PredicateRow) string {
	key, _, _ := canonicalJoin(pr)
	return key
}

// canonicalJoin is CanonicalJoin plus the relations of its left and right
// side as the key orders them.
func canonicalJoin(pr storage.PredicateRow) (key, leftRel, rightRel string) {
	left := pr.Rel + "." + pr.Attr
	right := pr.RightRel + "." + pr.RightAttr
	leftRel, rightRel = pr.Rel, pr.RightRel
	if pr.Op == "=" && left > right {
		left, right = right, left
		leftRel, rightRel = rightRel, leftRel
	}
	return left + " " + pr.Op + " " + right, leftRel, rightRel
}

// PredicateText renders a concrete (non-join) predicate exactly as the
// recommender suggests and de-duplicates it. Counter keys and correction
// candidates share this one format — keep them byte-identical through this
// helper.
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
		all:      newBucket().reseed(capacity),
		public:   newBucket().reseed(capacity),
		owners:   make(map[string]*bucket),
	}
}

// Attach builds a tracker over the store's current contents and subscribes
// it to the mutation event bus. Registration and the initial rebuild happen
// under the store's commit lock, so no mutation can slip between them; WAL
// replay keeps the tracker correct incrementally and a RestoreState triggers
// a full rebuild through the Rebuild hook.
func Attach(store *storage.Store) *Tracker {
	return attachWithCapacity(store, topKCapacity)
}

// attachWithCapacity is Attach with the given per-bucket top-K summary
// capacity.
func attachWithCapacity(store *storage.Store, capacity int) *Tracker {
	t := newWithCapacity(capacity)
	store.Subscribe("stats", t.OnMutation, storage.SubscribeOptions{Rebuild: func() { t.Rebuild(store) }})
	return t
}

// Rebuild replaces the tracker's counters with a from-scratch aggregation
// over the store's current contents. Records share their interned shape, so
// one scan counts them per user, shape and visibility; every shape's keys are
// then rendered once and added to each bucket with their multiplicity. The
// new counters are built off to the side and swapped in, so concurrent
// readers never observe a half-built state.
func (t *Tracker) Rebuild(store *storage.Store) {
	type cell struct {
		user   string
		shape  *storage.QueryShape
		public bool
	}
	cells := make(map[cell]int)
	store.Snapshot().Scan(storage.Principal{Admin: true}, func(rec *storage.QueryRecord) bool {
		cells[cell{rec.User, rec.QueryShape, rec.Visibility == storage.VisibilityPublic}]++
		return true
	})
	type counts struct {
		keys        shapeKeys
		all, public int
	}
	shapes := make(map[*storage.QueryShape]*counts)
	all, public := newBucket(), newBucket()
	owners := make(map[string]*bucket)
	for c, n := range cells {
		sh := shapes[c.shape]
		if sh == nil {
			sh = &counts{keys: keysOf(c.shape)}
			shapes[c.shape] = sh
		}
		sh.all += n
		all.users.add(c.user, n, false)
		if c.public {
			sh.public += n
			public.users.add(c.user, n, false)
			continue
		}
		b := owners[c.user]
		if b == nil {
			b = newBucket()
			owners[c.user] = b
		}
		b.queries += n
		b.users.add(c.user, n, false)
		b.add(&sh.keys, n, false)
	}
	for _, sh := range shapes {
		all.queries += sh.all
		all.add(&sh.keys, sh.all, false)
		if sh.public > 0 {
			public.queries += sh.public
			public.add(&sh.keys, sh.public, false)
		}
	}
	// Seed the summaries from the final maps: the exact top-capacity
	// membership and the tightest bound.
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
		k := keysOf(next.QueryShape) // a visibility flip keeps the shape
		t.mu.Lock()
		t.specificFor(prev).apply(prev, &k, -1)
		t.pruneOwner(prev.User)
		t.specificFor(next).apply(next, &k, 1)
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
	k := keysOf(rec.QueryShape)
	t.all.apply(rec, &k, 1)
	t.specificFor(rec).apply(rec, &k, 1)
}

func (t *Tracker) removeLocked(rec *storage.QueryRecord) {
	k := keysOf(rec.QueryShape)
	t.all.apply(rec, &k, -1)
	t.specificFor(rec).apply(rec, &k, -1)
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
		b = newBucket().reseed(t.capacity)
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

// histogramLocked returns the latency histogram of one listing read, nil
// before EnableMetrics; reads capture it under the read lock they already
// hold and observe after the out-of-lock sort.
func (t *Tracker) histogramLocked(read string) *telemetry.Histogram {
	if t.readLatency == nil {
		return nil
	}
	return t.readLatency[read]
}

// eachMerged calls fn once for every key some visible bucket's summary of
// one dimension tracks, with its count summed exactly over the buckets. A
// summary entry already holds the key's count in its own bucket, so only the
// other buckets are probed: a single-bucket (admin) read never touches the
// full counter maps. A key an earlier bucket tracks was merged there and is
// skipped. Callers must hold the read lock.
func eachMerged[K cmp.Ordered](buckets []*bucket, top func(*bucket) *topkSummary[K], count func(*bucket, K) int, fn func(key K, n int)) {
	for bi, b := range buckets {
	entries:
		for _, e := range top(b).heap {
			n := e.count
			for bj, other := range buckets {
				switch {
				case bj == bi:
				case bj < bi && top(other).contains(e.key):
					continue entries
				default:
					n += count(other, e.key)
				}
			}
			fn(e.key, n)
		}
	}
}

// listing serves one string-keyed listing read from the maintained top-K
// summaries: under the read lock it merges the principal's visible summaries
// of one dimension, naming each key with name, and outside it sorts the
// result by descending count then item. The read costs O(capacity log
// capacity) whatever the dimension's cardinality; it is timed end to end.
func (t *Tracker) listing(p storage.Principal, read string, top func(*bucket) *topkSummary[string], count func(*bucket, string) int, name func(buckets []*bucket, key string) string) []ItemCount {
	start := time.Now()
	t.mu.RLock()
	h := t.histogramLocked(read)
	buckets := t.bucketsFor(p)
	size := 0
	for _, b := range buckets {
		size += top(b).len()
	}
	out := make([]ItemCount, 0, size)
	eachMerged(buckets, top, count, func(key string, n int) {
		if name != nil {
			key = name(buckets, key)
		}
		out = append(out, ItemCount{Item: key, Count: n})
	})
	t.mu.RUnlock()
	slices.SortFunc(out, func(a, b ItemCount) int {
		return byRank(topkEntry[string]{a.Item, a.Count}, topkEntry[string]{b.Item, b.Count})
	})
	if h != nil {
		h.Observe(time.Since(start))
	}
	return out
}

// TableCounts returns per-table reference counts visible to the principal,
// each under the casing the table is most often written in, sorted by
// descending count then name — the same shape as storage.TableCounts.
// Tables omitted by every visible summary have true count ≤
// ApproxBounds(p).Tables.
func (t *Tracker) TableCounts(p storage.Principal) []storage.TableCount {
	items := t.listing(p, "tables", func(b *bucket) *topkSummary[string] { return b.topTables },
		func(b *bucket, key string) int {
			if ta := b.tables[key]; ta != nil {
				return ta.count
			}
			return 0
		}, displayName)
	out := make([]storage.TableCount, len(items))
	for i, it := range items {
		out[i] = storage.TableCount{Table: it.Item, Count: it.Count}
	}
	return out
}

// displayName is the casing a lower-cased table key is most often written
// in across the buckets.
func displayName(buckets []*bucket, key string) string {
	if len(buckets) == 1 {
		return storage.PickDisplayName(buckets[0].tables[key].names, key)
	}
	names := make(map[string]int)
	for _, b := range buckets {
		if ta := b.tables[key]; ta != nil {
			for name, n := range ta.names {
				names[name] += n
			}
		}
	}
	return storage.PickDisplayName(names, key)
}

// UserCount pairs a user with how many of their queries the principal's
// counters cover.
type UserCount struct {
	User    string
	Queries int
}

// UserActivity returns per-user query counts visible to the principal,
// sorted by descending count then user. Users omitted by every visible
// summary have true count ≤ ApproxBounds(p).Users.
func (t *Tracker) UserActivity(p storage.Principal) []UserCount {
	items := t.listing(p, "users", func(b *bucket) *topkSummary[string] { return b.users.top },
		func(b *bucket, key string) int { return b.users.counts[key] }, nil)
	out := make([]UserCount, len(items))
	for i, it := range items {
		out[i] = UserCount{User: it.Item, Queries: it.Count}
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
	out := t.listing(p, "predicates", func(b *bucket) *topkSummary[string] { return b.preds.top },
		func(b *bucket, key string) int { return b.preds.counts[key] }, nil)
	if k > 0 && len(out) > k {
		out = out[:k]
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
	most := 0
	eachMerged(t.bucketsFor(p), func(b *bucket) *topkSummary[uint64] { return b.fingerprints.top },
		func(b *bucket, fp uint64) int { return b.fingerprints.counts[fp] },
		func(_ uint64, n int) { most = max(most, n) })
	return most
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
			n += b.fingerprints.counts[fp]
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
		b.Users += bk.users.top.missedBound
		b.Predicates += bk.preds.top.missedBound
		b.Fingerprints += bk.fingerprints.top.missedBound
	}
	return b
}

// LowerSet builds the lower-cased context-table filter set the context
// reads apply, exported so a scan over the records can normalise table keys
// exactly as they do.
func LowerSet(tables []string) map[string]bool {
	set := make(map[string]bool, len(tables))
	for _, t := range tables {
		set[strings.ToLower(t)] = true
	}
	return set
}

// ColumnCounts returns attribute usage counts over the queries referencing
// any of the context tables, visible to the principal. A query referencing
// two context tables contributes twice, and attributes qualified with a
// relation outside the context are skipped.
func (t *Tracker) ColumnCounts(p storage.Principal, tables []string) map[string]int {
	return t.itemCounts(p, tables, func(ta *tableAgg) map[string]*itemCount { return ta.attrs })
}

// PredicateCounts returns concrete (non-join) predicate usage counts over
// the queries referencing any of the context tables, visible to the
// principal, keyed by the ready-to-insert predicate text; counted and
// filtered as ColumnCounts.
func (t *Tracker) PredicateCounts(p storage.Principal, tables []string) map[string]int {
	return t.itemCounts(p, tables, func(ta *tableAgg) map[string]*itemCount { return ta.preds })
}

// itemCounts sums one kind of table-aggregate item over the context tables'
// aggregates in the principal's visible buckets, once per context table
// listed, skipping items qualified with a relation outside the context.
func (t *Tracker) itemCounts(p storage.Principal, tables []string, items func(*tableAgg) map[string]*itemCount) map[string]int {
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
			for text, ic := range items(ta) {
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
			return float64(len(t.all.users.counts))
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
		"users":        func(b *bucket) (int, int) { return b.users.top.len(), b.users.top.missedBound },
		"predicates":   func(b *bucket) (int, int) { return b.preds.top.len(), b.preds.top.missedBound },
		"fingerprints": func(b *bucket) (int, int) { return b.fingerprints.top.len(), b.fingerprints.top.missedBound },
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
