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
//
// An owner bucket's counters are computed for its owner's reads only, so a
// write does not build them: until the owner first reads, the bucket is its
// query count and a list of (shape keys, record count) entries that writes
// net into. The first read builds the counters from the list, as Rebuild
// builds the all and public buckets, and they stay built; so does a write
// that would scan more than maxListedShapes entries. The all and public
// buckets are always built.
//
// The counter keys are a query's Figure 1 rows as internal/sql spells them:
// an attribute by sql.AttributeRow.Name, a concrete predicate by
// sql.PredicateRow.Text and a join by sql.PredicateRow.CanonicalJoin. The
// recommender suggests and compares those same strings, so a count and the
// suggestion it ranks agree byte for byte.
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
// Items are held by value, so a key costs its map slot and nothing more.
type tableAgg struct {
	count int            // queries referencing the table
	names map[string]int // live display casings
	attrs map[string]itemCount
	preds map[string]itemCount
	joins map[string]joinCount
}

func newTableAgg() *tableAgg {
	return &tableAgg{
		names: make(map[string]int),
		attrs: make(map[string]itemCount),
		preds: make(map[string]itemCount),
		joins: make(map[string]joinCount),
	}
}

// value is the table's query count, 0 for a table the bucket does not hold.
func (ta *tableAgg) value() int {
	if ta == nil {
		return 0
	}
	return ta.count
}

// tally is an exact count, what the users, predicates and fingerprints
// dimensions hold per key.
type tally int

func (n tally) value() int { return int(n) }

// counted is what a dimension's exact map holds per key: a tally, or the
// aggregate of a table, which carries the table's query count.
type counted interface{ value() int }

// counter is one listed dimension of a bucket: the exact map from each key to
// its count and, once the map has held more than capacity keys, the top-K
// summary over those counts (see topk.go). Until then the map itself is the
// listing, complete, with bound 0 — exactly what a summary would hold, since
// a summary with room tracks every key — so a bucket pays for a summary only
// in a dimension that outgrew one. The read methods below are the one way
// listings, bounds and gauges see a dimension.
type counter[K cmp.Ordered, V counted] struct {
	counts map[K]V
	top    *topkSummary[K]
}

// follow keeps the summary in step with key's new exact count n, and is the
// one place that does: an existing summary is re-offered the key, and the
// first time the map holds more than capacity keys a summary is seeded from
// it. Seeding then keeps the same keys and bound as re-offering
// the key to a summary that had tracked every other one: both drop the
// lowest-ranked of the capacity+1 keys. Capacity 0 leaves the summary alone:
// Rebuild adds so and reseeds once at the end.
func (c *counter[K, V]) follow(key K, n, capacity int) {
	switch {
	case capacity == 0:
	case c.top != nil:
		c.top.update(key, n)
	case len(c.counts) > capacity:
		c.top = seedTopK(capacity, c.counts)
	}
}

// reseed replaces the summary with one seeded from the exact map — the
// tightest membership and bound possible — or with none while the map holds
// at most capacity keys.
func (c *counter[K, V]) reseed(capacity int) {
	c.top = nil
	if len(c.counts) > capacity {
		c.top = seedTopK(capacity, c.counts)
	}
}

// each calls fn with every key the dimension lists and its exact count.
func (c *counter[K, V]) each(fn func(key K, n int)) {
	if c.top != nil {
		for _, e := range c.top.heap {
			fn(e.key, e.count)
		}
		return
	}
	for key, v := range c.counts {
		fn(key, v.value())
	}
}

// size is how many keys the dimension lists.
func (c *counter[K, V]) size() int {
	if c.top != nil {
		return c.top.len()
	}
	return len(c.counts)
}

// lists reports whether the dimension lists key.
func (c *counter[K, V]) lists(key K) bool {
	if c.top != nil {
		return c.top.contains(key)
	}
	_, ok := c.counts[key]
	return ok
}

// count is key's exact count.
func (c *counter[K, V]) count(key K) int { return c.counts[key].value() }

// bound is the count under which the listing may omit a key: every key it
// does not list has an exact count at most this.
func (c *counter[K, V]) bound() int {
	if c.top == nil {
		return 0
	}
	return c.top.missedBound
}

// addTally adjusts key's count by d, deleting the key when it empties, and
// keeps the summary in step (see follow).
func addTally[K cmp.Ordered](c *counter[K, tally], key K, d, capacity int) {
	c.follow(key, int(bumpCount(c.counts, key, tally(d))), capacity)
}

// bucket is one visibility bucket of counters: four listed dimensions, each
// with its exact counts and, past capacity, a bounded top-K summary, so the
// listing reads — top tables, top users, top predicates, fingerprint
// popularity — never have to materialise or sort a large map. An owner
// bucket is only its query count and a shape list until its owner reads.
type bucket struct {
	queries      int
	users        counter[string, tally]
	fingerprints counter[uint64, tally]
	// preds counts concrete predicates once per occurrence in a record —
	// unlike the per-table aggregates, which count once per referenced
	// table — so log-wide "top predicates" listings are not inflated for
	// multi-table queries.
	preds  counter[string, tally]
	tables counter[string, *tableAgg] // key: lower-cased table name
	// byShape is, with queries, all an owner bucket holds until its owner
	// first reads it: the keys of each shape its records have, from the key
	// cache, and how many have it. Writes net into it and build nothing;
	// settle builds the counters from it. A built bucket has the dimensions'
	// maps and no list.
	byShape []shapeCount
}

// maxListedShapes bounds the entries a write scans in an unbuilt owner
// bucket's list: a write that would list one shape more, or that meets a
// longer list a Rebuild left, settles the bucket first. An owner that writes
// many shapes and never reads, such as a capture proxy's account, pays for
// its counters once.
const maxListedShapes = 64

// shapeCount is a shape's keys with a count of records that have it.
type shapeCount struct {
	keys *shapeKeys
	n    int
}

// newBucket returns a bucket with empty counts and no summaries.
func newBucket() *bucket {
	return &bucket{
		users:        counter[string, tally]{counts: make(map[string]tally)},
		fingerprints: counter[uint64, tally]{counts: make(map[uint64]tally)},
		preds:        counter[string, tally]{counts: make(map[string]tally)},
		tables:       counter[string, *tableAgg]{counts: make(map[string]*tableAgg)},
	}
}

// reseed rebuilds every summary from the bucket's exact counts (see
// counter.reseed). Rebuild calls it after bulk construction, where the
// incremental admission order could otherwise leave an inflated watermark.
func (b *bucket) reseed(capacity int) {
	b.tables.reseed(capacity)
	b.users.reseed(capacity)
	b.preds.reseed(capacity)
	b.fingerprints.reseed(capacity)
}

// built reports whether the bucket has its counters: the all and public
// buckets always do, an owner bucket once settle has built them.
func (b *bucket) built() bool { return b.users.counts != nil }

// settle builds the counters of a user's owner bucket from its shape list,
// exactly as Rebuild builds the all and public buckets, and drops the list;
// a built bucket is left as it is. The owner's first read settles their
// bucket, and so does a write that would list more than maxListedShapes.
func (b *bucket) settle(user string, capacity int) {
	if b.built() {
		return
	}
	built := newBucket()
	built.queries = b.queries
	addTally(&built.users, user, b.queries, 0)
	for _, s := range b.byShape {
		built.add(s.keys, s.n, 0)
	}
	built.reseed(capacity)
	*b = *built
}

// list nets delta records of the shape whose keys are k into an unbuilt
// bucket's list, dropping the entry whose count reaches 0. It reports false,
// changing nothing, when k would be a new entry of a full list; a Rebuild
// can leave a list longer than the bound, and such a list is not scanned.
func (b *bucket) list(k *shapeKeys, delta int) bool {
	if len(b.byShape) > maxListedShapes {
		return false
	}
	for i := range b.byShape {
		s := &b.byShape[i]
		if s.keys != k {
			continue
		}
		if s.n += delta; s.n <= 0 {
			last := len(b.byShape) - 1
			b.byShape[i] = b.byShape[last]
			b.byShape = b.byShape[:last]
		}
		return true
	}
	switch {
	case delta <= 0: // nothing counted to retract, as in bumpCount
	case len(b.byShape) == maxListedShapes:
		return false
	default:
		b.byShape = append(b.byShape, shapeCount{k, delta})
	}
	return true
}

// bumpItem adjusts one candidate counter, deleting the key when it empties
// so removed queries do not leak zero-count entries.
func bumpItem(m map[string]itemCount, key, rel string, delta int) {
	ic, ok := m[key]
	if !ok {
		if delta <= 0 {
			return
		}
		ic.rel = rel
	}
	ic.count += delta
	if ic.count <= 0 {
		delete(m, key)
		return
	}
	m[key] = ic
}

func bumpJoin(m map[string]joinCount, key, left, right string, delta int) {
	jc, ok := m[key]
	if !ok {
		if delta <= 0 {
			return
		}
		jc.left, jc.right = left, right
	}
	jc.count += delta
	if jc.count <= 0 {
		delete(m, key)
		return
	}
	m[key] = jc
}

// bumpCount adjusts a plain counter map, deleting emptied keys, and returns
// the new count.
func bumpCount[K comparable, V ~int](m map[K]V, key K, delta V) V {
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
// first appears in. Live apply and Rebuild both render a shape's keys here,
// in the format internal/sql spells.
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
		k.attrs = append(k.attrs, relItem{text: a.Name(), rel: strings.ToLower(a.Rel)})
	}
	for _, p := range sh.Predicates {
		if p.IsJoin {
			key, left, right := p.CanonicalJoin()
			k.joins = append(k.joins, joinItem{key: key, left: strings.ToLower(left), right: strings.ToLower(right)})
			continue
		}
		k.preds = append(k.preds, relItem{text: p.Text(), rel: strings.ToLower(p.Rel)})
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
// k being the keys of its shape from the key cache: into the list of an
// unbuilt owner bucket, or into the counters, keeping the summaries current
// key by key. It runs under the store's commit lock.
func (b *bucket) apply(rec *storage.QueryRecord, k *shapeKeys, delta, capacity int) {
	if !b.built() {
		if b.list(k, delta) {
			b.queries += delta
			return
		}
		b.settle(rec.User, capacity)
	}
	b.queries += delta
	addTally(&b.users, rec.User, delta, capacity)
	b.add(k, delta, capacity)
}

// add counts n copies of a shape's keys (n < 0 retracts them), capacity as
// for counter.follow. A shape contributes to the table aggregates once per
// distinct table it references, so a query referencing two context tables
// counts once per table in the context reads.
func (b *bucket) add(k *shapeKeys, n, capacity int) {
	addTally(&b.fingerprints, k.fingerprint, n, capacity)
	for _, p := range k.preds {
		addTally(&b.preds, p.text, n, capacity)
	}
	for _, t := range k.tables {
		ta := b.tables.counts[t.key]
		if ta == nil {
			if n <= 0 {
				continue
			}
			ta = newTableAgg()
			b.tables.counts[t.key] = ta
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
			delete(b.tables.counts, t.key)
		}
		b.tables.follow(t.key, ta.count, capacity)
	}
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
	// shapes holds the keys of every shape the counted records have,
	// rendered once, with how many of those records have it: an entry is
	// made with its shape's first record and dropped with its last.
	shapes map[*storage.QueryShape]*countedShape

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
		all:      newBucket(),
		public:   newBucket(),
		owners:   make(map[string]*bucket),
		shapes:   make(map[*storage.QueryShape]*countedShape),
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

// countedShape is one entry of the tracker's key cache: a shape's keys and
// how many counted records have the shape.
type countedShape struct {
	keys    shapeKeys
	records int
}

// Rebuild replaces the tracker's counters with a from-scratch aggregation
// over the store's current contents. Records share their interned shape, so
// one scan counts them per user, shape and visibility; every shape's keys are
// then rendered once, into the new key cache, and added to the all and
// public buckets with their multiplicity. An owner bucket only lists its
// shapes and their counts, as writes leave it, and is built on its owner's
// first read (bucket.settle). The new counters are built off to the side and
// swapped in, so concurrent readers never observe a half-built state.
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
	shapes := make(map[*storage.QueryShape]*countedShape)
	published := make(map[*storage.QueryShape]int) // public records per shape
	all, public := newBucket(), newBucket()
	owners := make(map[string]*bucket)
	for c, n := range cells {
		sh := shapes[c.shape]
		if sh == nil {
			sh = &countedShape{keys: keysOf(c.shape)}
			shapes[c.shape] = sh
		}
		sh.records += n
		addTally(&all.users, c.user, n, 0)
		if c.public {
			published[c.shape] += n
			addTally(&public.users, c.user, n, 0)
			continue
		}
		b := owners[c.user]
		if b == nil {
			b = &bucket{}
			owners[c.user] = b
		}
		b.queries += n
		b.byShape = append(b.byShape, shapeCount{&sh.keys, n})
	}
	for shape, sh := range shapes {
		all.queries += sh.records
		all.add(&sh.keys, sh.records, 0)
		if n := published[shape]; n > 0 {
			public.queries += n
			public.add(&sh.keys, n, 0)
		}
	}
	// Seed the summaries of the dimensions past capacity from the final
	// maps: the exact top-capacity membership and the tightest bound.
	all.reseed(t.capacity)
	public.reseed(t.capacity)
	t.mu.Lock()
	t.all, t.public, t.owners, t.shapes = all, public, owners, shapes
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
		k := t.keysLocked(next.QueryShape, 0) // a visibility flip keeps the shape
		t.specificFor(prev).apply(prev, k, -1, t.capacity)
		t.pruneOwner(prev.User)
		t.specificFor(next).apply(next, k, 1, t.capacity)
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
	k := t.keysLocked(rec.QueryShape, 1)
	t.all.apply(rec, k, 1, t.capacity)
	t.specificFor(rec).apply(rec, k, 1, t.capacity)
}

func (t *Tracker) removeLocked(rec *storage.QueryRecord) {
	k := t.keysLocked(rec.QueryShape, -1)
	t.all.apply(rec, k, -1, t.capacity)
	t.specificFor(rec).apply(rec, k, -1, t.capacity)
	t.pruneOwner(rec.User)
}

// keysLocked returns the keys of sh from the key cache, rendering them only
// for a shape no counted record has, and moves the shape's record count by
// d, dropping its entry when no counted record has it any more.
func (t *Tracker) keysLocked(sh *storage.QueryShape, d int) *shapeKeys {
	e := t.shapes[sh]
	if e == nil {
		e = &countedShape{keys: keysOf(sh)}
		t.shapes[sh] = e
	}
	e.records += d
	if e.records <= 0 {
		delete(t.shapes, sh)
	}
	return &e.keys
}

// specificFor returns the visibility bucket a record's contributions belong
// to besides `all`, creating a new owner's bucket as an empty list.
func (t *Tracker) specificFor(rec *storage.QueryRecord) *bucket {
	if rec.Visibility == storage.VisibilityPublic {
		return t.public
	}
	b := t.owners[rec.User]
	if b == nil {
		b = &bucket{}
		t.owners[rec.User] = b
	}
	return b
}

// pruneOwner drops a user's bucket once it counts no query, so churning users
// (deletes, visibility flips to public) do not leak empty buckets or stale
// watermark state. A bucket with no query holds no key: exact counts are
// deleted when they empty, and a summary tracks only keys they hold.
func (t *Tracker) pruneOwner(user string) {
	if b := t.owners[user]; b != nil && b.queries == 0 {
		delete(t.owners, user)
	}
}

// rlockFor read-locks the tracker for a read by the principal, first
// building their owner bucket's counters if it is still a list. The caller
// releases the read lock.
func (t *Tracker) rlockFor(p storage.Principal) {
	t.mu.RLock()
	if p.Admin {
		return
	}
	for b := t.owners[p.User]; b != nil && !b.built(); b = t.owners[p.User] {
		t.mu.RUnlock()
		t.mu.Lock()
		if b := t.owners[p.User]; b != nil {
			b.settle(p.User, t.capacity)
		}
		t.mu.Unlock()
		t.mu.RLock()
	}
}

// bucketsFor returns the buckets visible to the principal: admins read the
// whole log, everyone else the public bucket merged with their own
// non-public queries. Callers must hold the read lock rlockFor takes.
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
	t.rlockFor(p)
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

// eachMerged calls fn once for every key some visible bucket's dimension
// lists, with its count summed exactly over the buckets. A listed key comes
// with its count in its own bucket, so only the other buckets are probed: a
// single-bucket (admin) read of a dimension with a summary never touches its
// exact map. A key an earlier bucket lists was merged there and is skipped.
// Callers must hold the read lock.
func eachMerged[K cmp.Ordered, V counted](buckets []*bucket, dim func(*bucket) *counter[K, V], fn func(key K, n int)) {
	for bi, b := range buckets {
		dim(b).each(func(key K, n int) {
			for bj, other := range buckets {
				switch {
				case bj == bi:
				case bj < bi && dim(other).lists(key):
					return
				default:
					n += dim(other).count(key)
				}
			}
			fn(key, n)
		})
	}
}

// listing serves one string-keyed listing read: under the read lock it
// merges one dimension of the principal's visible buckets, naming each key
// with name, and outside it sorts the result by descending count then item.
// A dimension lists at most capacity keys per bucket, so the read costs
// O(capacity log capacity) whatever the dimension's cardinality; it is timed
// end to end.
func listing[V counted](t *Tracker, p storage.Principal, read string, dim func(*bucket) *counter[string, V], name func(buckets []*bucket, key string) string) []ItemCount {
	start := time.Now()
	t.rlockFor(p)
	h := t.histogramLocked(read)
	buckets := t.bucketsFor(p)
	size := 0
	for _, b := range buckets {
		size += dim(b).size()
	}
	out := make([]ItemCount, 0, size)
	eachMerged(buckets, dim, func(key string, n int) {
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

// The dimensions as the reads name them.
func tablesOf(b *bucket) *counter[string, *tableAgg]   { return &b.tables }
func usersOf(b *bucket) *counter[string, tally]        { return &b.users }
func predsOf(b *bucket) *counter[string, tally]        { return &b.preds }
func fingerprintsOf(b *bucket) *counter[uint64, tally] { return &b.fingerprints }

// TableCounts returns per-table reference counts visible to the principal,
// each under the casing the table is most often written in, sorted by
// descending count then name.
// Tables omitted by every visible listing have true count ≤
// ApproxBounds(p).Tables.
func (t *Tracker) TableCounts(p storage.Principal) []storage.TableCount {
	items := listing(t, p, "tables", tablesOf, displayName)
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
		return storage.PickDisplayName(buckets[0].tables.counts[key].names, key)
	}
	names := make(map[string]int)
	for _, b := range buckets {
		if ta := b.tables.counts[key]; ta != nil {
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
	items := listing(t, p, "users", usersOf, nil)
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
	out := listing(t, p, "predicates", predsOf, nil)
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
	t.rlockFor(p)
	defer t.mu.RUnlock()
	most := 0
	eachMerged(t.bucketsFor(p), fingerprintsOf, func(_ uint64, n int) { most = max(most, n) })
	return most
}

// FingerprintCountsFor returns the principal-visible popularity counts of
// exactly the requested fingerprints, probed from the exact counter maps in
// O(len(fps)), independent of how many distinct templates the log holds.
func (t *Tracker) FingerprintCountsFor(p storage.Principal, fps []uint64) map[uint64]int {
	out := make(map[uint64]int, len(fps))
	t.rlockFor(p)
	defer t.mu.RUnlock()
	buckets := t.bucketsFor(p)
	for _, fp := range fps {
		if _, done := out[fp]; done {
			continue
		}
		n := 0
		for _, b := range buckets {
			n += b.fingerprints.count(fp)
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
	t.rlockFor(p)
	defer t.mu.RUnlock()
	b := ApproxBounds{Capacity: t.capacity}
	for _, bk := range t.bucketsFor(p) {
		b.Tables += bk.tables.bound()
		b.Users += bk.users.bound()
		b.Predicates += bk.preds.bound()
		b.Fingerprints += bk.fingerprints.bound()
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
	return t.itemCounts(p, tables, func(ta *tableAgg) map[string]itemCount { return ta.attrs })
}

// PredicateCounts returns concrete (non-join) predicate usage counts over
// the queries referencing any of the context tables, visible to the
// principal, keyed by the ready-to-insert predicate text; counted and
// filtered as ColumnCounts.
func (t *Tracker) PredicateCounts(p storage.Principal, tables []string) map[string]int {
	return t.itemCounts(p, tables, func(ta *tableAgg) map[string]itemCount { return ta.preds })
}

// itemCounts sums one kind of table-aggregate item over the context tables'
// aggregates in the principal's visible buckets, once per context table
// listed, skipping items qualified with a relation outside the context.
func (t *Tracker) itemCounts(p storage.Principal, tables []string, items func(*tableAgg) map[string]itemCount) map[string]int {
	ctx := LowerSet(tables)
	out := make(map[string]int)
	t.rlockFor(p)
	defer t.mu.RUnlock()
	for _, b := range t.bucketsFor(p) {
		for _, tbl := range tables {
			ta := b.tables.counts[strings.ToLower(tbl)]
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
	t.rlockFor(p)
	defer t.mu.RUnlock()
	for _, b := range t.bucketsFor(p) {
		for _, tbl := range tables {
			ta := b.tables.counts[strings.ToLower(tbl)]
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
			return float64(len(t.all.tables.counts))
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
	reg.GaugeFunc("cqms_stats_owner_buckets_built",
		"Per-owner visibility buckets whose counters are built, by their owner's first read or a write past the listed-shape bound; the rest hold only a (shape, count) list.",
		func() float64 {
			t.mu.RLock()
			defer t.mu.RUnlock()
			n := 0
			for _, b := range t.owners {
				if b.built() {
					n++
				}
			}
			return float64(n)
		})
	// Top-K summary health on the admin (`all`) bucket: how many keys each
	// dimension lists (all of them while it has no summary) and the miss
	// watermark — the count under which a listing may omit items (0 =
	// listings are complete and exact).
	tracked := reg.GaugeFuncVec("cqms_stats_topk_tracked",
		"Keys tracked by the all-bucket top-K summary, per dimension.", "dimension")
	bound := reg.GaugeFuncVec("cqms_stats_topk_miss_bound",
		"Count threshold under which the all-bucket listing may omit items, per dimension (0 = exact).",
		"dimension")
	summaries := map[string]func(b *bucket) (tracked, bound int){
		"tables":       func(b *bucket) (int, int) { return b.tables.size(), b.tables.bound() },
		"users":        func(b *bucket) (int, int) { return b.users.size(), b.users.bound() },
		"predicates":   func(b *bucket) (int, int) { return b.preds.size(), b.preds.bound() },
		"fingerprints": func(b *bucket) (int, int) { return b.fingerprints.size(), b.fingerprints.bound() },
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
