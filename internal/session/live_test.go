package session

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// canonSession is a session reduced to what two detectors must agree on: the
// ID, the ordered query IDs, the labelled edges and the window bounds.
type canonSession struct {
	ID      int64
	User    string
	Queries []storage.QueryID
	Edges   []Edge
	Start   time.Time
	End     time.Time
}

func canonicalize(sessions []Session) []canonSession {
	out := make([]canonSession, 0, len(sessions))
	for _, s := range sessions {
		// UTC: a recovered record's time carries another *Location.
		cs := canonSession{ID: s.ID, User: s.User, Edges: s.Edges, Start: s.Start.UTC(), End: s.End.UTC()}
		if len(cs.Edges) == 0 {
			cs.Edges = nil
		}
		for _, q := range s.Queries {
			cs.Queries = append(cs.Queries, q.ID)
		}
		out = append(out, cs)
	}
	return out
}

// listingPrincipals see a log differently: everything, one user's own and
// public sessions, and what membership of one or both groups opens up.
var listingPrincipals = []storage.Principal{
	admin,
	{User: "alice"},
	{User: "eve"},
	{User: "eve", Groups: []string{"limnology"}},
	{User: "bob", Groups: []string{"hydrology", "limnology"}},
}

// assertMatchesBatch asserts the live detector agrees with the batch
// segmenter re-run over the store's current contents: the partition, the
// session IDs, the window bounds and the labels as Export and Get return
// them, and the listing — tables, counts and visibility, which the live side
// keeps incrementally — for several principals. It also checks the
// structural invariants the local edits rely on.
func assertMatchesBatch(t *testing.T, live *Live, store *storage.Store) {
	t.Helper()
	batch := NewDetector().Detect(store.Snapshot().Records(admin))
	exported := live.Export()
	want := canonicalize(batch)
	if got := canonicalize(exported); !reflect.DeepEqual(got, want) {
		t.Fatalf("live sessions diverge from batch\n got: %+v\nwant: %+v", got, want)
	}
	var got []Session
	for _, s := range exported {
		sess, ok, visible := live.Get(admin, s.ID)
		if !ok || !visible {
			t.Fatalf("Get(%d) = ok %v, visible %v", s.ID, ok, visible)
		}
		got = append(got, sess)
	}
	if !reflect.DeepEqual(canonicalize(got), want) {
		t.Fatalf("Get disagrees with Export\n got: %+v\nwant: %+v", got, exported)
	}
	for _, p := range listingPrincipals {
		var want []Summary
		for i := range batch {
			visible := true
			for _, q := range batch[i].Queries {
				visible = visible && q.VisibleTo(p)
			}
			if visible {
				want = append(want, Summarize(&batch[i]))
			}
		}
		if got := live.Summaries(p, 0, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("listing for %+v diverges from batch\n got: %+v\nwant: %+v", p, got, want)
		}
	}
	if err := checkInvariants(live); err != nil {
		t.Fatal(err)
	}
}

// checkInvariants verifies what the binary searches and the listing rely on:
// every record of the store in exactly one window, owned by the window's
// user, strictly chronological within and across a user's windows; each
// window named by its lowest query ID and byID strictly ascending; the
// listing counts equal to a recount.
func checkInvariants(l *Live) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	records, windows := 0, 0
	for user, wins := range l.users {
		if len(wins) == 0 {
			return fmt.Errorf("user %q is tracked with no windows", user)
		}
		var last *storage.QueryRecord
		for _, w := range wins {
			windows++
			if w.user != user || len(w.queries) == 0 {
				return fmt.Errorf("window %d of %q: user %q, %d queries", w.id, user, w.user, len(w.queries))
			}
			for _, q := range w.queries {
				if q.User != user {
					return fmt.Errorf("window %d of %q holds query %d of %q", w.id, user, q.ID, q.User)
				}
				if last != nil && !chronoLess(last, q) {
					return fmt.Errorf("window %d of %q: query %d out of order", w.id, user, q.ID)
				}
				if cur, err := l.store.Snapshot().Get(q.ID, admin); err != nil || cur != q {
					return fmt.Errorf("window %d holds a version of query %d the store does not (%v)", w.id, q.ID, err)
				}
				last = q
			}
			fresh := newWindow(user, w.queries)
			if fresh.id != w.id {
				return fmt.Errorf("window %d: its lowest query is %d", w.id, fresh.id)
			}
			if !slices.Equal(fresh.tables, w.tables) || !slices.Equal(fresh.groups, w.groups) || fresh.hidden != w.hidden ||
				!fresh.start.Equal(w.start) || !fresh.end.Equal(w.end) {
				return fmt.Errorf("window %d: listing state %v %v %d %v-%v, recomputed %v %v %d %v-%v", w.id,
					w.tables, w.groups, w.hidden, w.start, w.end, fresh.tables, fresh.groups, fresh.hidden, fresh.start, fresh.end)
			}
			records += len(w.queries)
		}
	}
	if records != l.store.Count() || windows != len(l.byID) {
		return fmt.Errorf("%d queries in %d windows; the store holds %d, byID %d", records, windows, l.store.Count(), len(l.byID))
	}
	for i, w := range l.byID {
		if i > 0 && w.id <= l.byID[i-1].id {
			return fmt.Errorf("byID[%d] = %d breaks ascending order", i, w.id)
		}
	}
	return nil
}

// sessionSQL is a vocabulary whose pairwise feature similarity straddles the
// detector's minSimilarity, so soft-gap decisions go both ways.
func sessionSQL(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("SELECT temp FROM WaterTemp WHERE temp < %d", rng.Intn(5))
	case 1:
		return "SELECT lake, temp FROM WaterTemp"
	case 2:
		return fmt.Sprintf("SELECT salinity FROM WaterSalinity WHERE salinity > %d", rng.Intn(5))
	default:
		return "SELECT city FROM CityLocations"
	}
}

// mutateSessionStream drives n random mutations whose timestamps mix
// in-order appends (the fast path), soft/hard gaps, and out-of-order
// inserts, plus deletions, text repairs and visibility flips. each, when
// set, runs after every mutation.
func mutateSessionStream(t *testing.T, rng *rand.Rand, store *storage.Store, n int, each func()) {
	t.Helper()
	users := []string{"alice", "bob", "carol"}
	groups := []string{"", "limnology", "hydrology"}
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	clock := base
	var ids []storage.QueryID
	put := func(at time.Time) {
		rec, err := storage.NewRecordFromSQL(sessionSQL(rng))
		if err != nil {
			t.Fatal(err)
		}
		rec.User = users[rng.Intn(len(users))]
		rec.Group = groups[rng.Intn(len(groups))]
		rec.Visibility = storage.Visibility(rng.Intn(3))
		rec.IssuedAt = at
		ids = append(ids, mustPut(t, store, rec))
	}
	for i := 0; i < n; i++ {
		op := rng.Intn(10)
		if len(ids) < 3 {
			op = 0
		}
		switch op {
		case 0, 1, 2, 3: // in-order append with a gap drawn across the thresholds
			gaps := []time.Duration{time.Minute, 6 * time.Minute, 40 * time.Minute}
			clock = clock.Add(gaps[rng.Intn(len(gaps))])
			put(clock)
		case 4: // out-of-order insert somewhere in the past
			put(base.Add(time.Duration(rng.Intn(int(clock.Sub(base)/time.Second)+1)) * time.Second))
		case 5: // duplicate timestamp (ID tie-break)
			put(clock)
		case 6:
			_ = store.Delete(ids[rng.Intn(len(ids))], admin) // may be gone already
		case 7:
			id := ids[rng.Intn(len(ids))]
			upd, err := storage.NewRecordFromSQL(sessionSQL(rng))
			if err != nil {
				t.Fatal(err)
			}
			_ = store.ReplaceText(id, upd)
		case 8:
			id := ids[rng.Intn(len(ids))]
			_ = store.SetVisibility(id, admin, storage.Visibility(rng.Intn(3)))
		default:
			id := ids[rng.Intn(len(ids))]
			_ = store.Annotate(id, admin, storage.Annotation{Author: "admin", Text: "note"})
		}
		if each != nil {
			each()
		}
	}
}

// TestLiveRandomizedEquivalence is the core correctness property of the
// incremental detector: after every step of an arbitrary mutation history —
// in-order and out-of-order inserts, deletions, text repairs, visibility
// changes — the live windows, labels and listings equal a from-scratch batch
// re-segmentation, at a cost of at most two boundary evaluations a step and
// no label on the write path.
func TestLiveRandomizedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			store := storage.NewStore()
			live := AttachLive(store)
			reg := telemetry.NewRegistry()
			live.EnableMetrics(reg)
			labels := reg.Counter("cqms_sessions_edge_labels_total", "")
			var cuts, labelled uint64
			mutateSessionStream(t, rng, store, 240, func() {
				if got := live.BoundaryEvaluations(); got > cuts+2 {
					t.Fatalf("one mutation cost %d boundary evaluations", got-cuts)
				}
				if got := labels.Value(); got != labelled {
					t.Fatalf("the mutation computed %d edge labels", got-labelled)
				}
				assertMatchesBatch(t, live, store)
				cuts, labelled = live.BoundaryEvaluations(), labels.Value()
			})
		})
	}
}

// layout prints one user's windows in chronological order, "ID[query IDs]",
// which pins the partition and the ID rule at once.
func layout(l *Live, user string) string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var parts []string
	for _, w := range l.users[user] {
		ids := make([]string, len(w.queries))
		for i, q := range w.queries {
			ids[i] = fmt.Sprint(q.ID)
		}
		parts = append(parts, fmt.Sprintf("%d[%s]", w.id, strings.Join(ids, " ")))
	}
	return strings.Join(parts, " ")
}

// TestLocalEditTable names every structural outcome of a local edit. A and B
// are two texts with no feature in common: across a soft gap (over 5 minutes)
// an A continues an A and a B starts a new session; up to 5 minutes anything
// continues anything; over 30 nothing does. Each case builds a stream in
// order (query IDs 1, 2, ... in the order listed), applies one edit and
// expects a layout — and, like every test here, batch Detect over the same
// records is the oracle.
func TestLocalEditTable(t *testing.T) {
	type q struct {
		kind   byte
		minute int
	}
	texts := map[byte]string{'A': "SELECT temp FROM WaterTemp WHERE temp < 3", 'B': "SELECT city FROM CityLocations"}
	cases := []struct {
		name   string
		stream []q
		before string
		put    *q  // insert this record, or
		del    int // delete this query ID, or
		retext int // repair this query ID's text to
		to     byte
		move   int // or replay a put of this query ID issued at minute
		at     int
		after  string
		edits  string // the edit kinds counted, in editKinds order
	}{
		{name: "put before the first window, joining it", stream: []q{{'A', 60}, {'A', 61}}, before: "1[1 2]",
			put: &q{'A', 58}, after: "1[3 1 2]", edits: "insert"},
		{name: "put before the first window, standing alone", stream: []q{{'A', 60}, {'A', 61}}, before: "1[1 2]",
			put: &q{'A', 0}, after: "3[3] 1[1 2]", edits: "insert"},
		{name: "put inside a window, joining both sides", stream: []q{{'A', 0}, {'A', 2}}, before: "1[1 2]",
			put: &q{'A', 1}, after: "1[1 3 2]", edits: "insert"},
		{name: "put inside a window, splitting after itself", stream: []q{{'A', 0}, {'A', 10}}, before: "1[1 2]",
			put: &q{'B', 4}, after: "1[1 3] 2[2]", edits: "insert split"},
		{name: "put inside a window, splitting before itself", stream: []q{{'A', 0}, {'A', 10}}, before: "1[1 2]",
			put: &q{'B', 6}, after: "1[1] 2[3 2]", edits: "insert split"},
		{name: "put inside a window, splitting it in three", stream: []q{{'A', 0}, {'A', 20}}, before: "1[1 2]",
			put: &q{'B', 10}, after: "1[1] 3[3] 2[2]", edits: "insert split"},
		{name: "put inside a window, splitting off its lowest query", stream: []q{{'A', 10}, {'A', 0}}, before: "1[2 1]",
			put: &q{'B', 4}, after: "2[2 3] 1[1]", edits: "insert split"},
		{name: "put between two windows, joining the left", stream: []q{{'A', 0}, {'A', 60}}, before: "1[1] 2[2]",
			put: &q{'A', 3}, after: "1[1 3] 2[2]", edits: "insert"},
		{name: "put between two windows, joining the right", stream: []q{{'A', 0}, {'A', 60}}, before: "1[1] 2[2]",
			put: &q{'A', 58}, after: "1[1] 2[3 2]", edits: "insert"},
		{name: "put between two windows, bridging and merging them", stream: []q{{'A', 0}, {'A', 40}}, before: "1[1] 2[2]",
			put: &q{'A', 20}, after: "1[1 3 2]", edits: "insert merge"},
		{name: "put between two windows, merging them under the later one's ID", stream: []q{{'A', 40}, {'A', 0}}, before: "2[2] 1[1]",
			put: &q{'A', 20}, after: "1[2 3 1]", edits: "insert merge"},
		{name: "put between two windows, standing alone", stream: []q{{'A', 0}, {'A', 100}}, before: "1[1] 2[2]",
			put: &q{'A', 50}, after: "1[1] 3[3] 2[2]", edits: "insert"},
		{name: "put at an existing IssuedAt sorts behind it by ID", stream: []q{{'A', 0}, {'A', 10}}, before: "1[1 2]",
			put: &q{'B', 0}, after: "1[1 3] 2[2]", edits: "insert split"},
		{name: "put at the tail's IssuedAt is an append", stream: []q{{'A', 0}, {'A', 10}}, before: "1[1 2]",
			put: &q{'B', 10}, after: "1[1 2 3]", edits: "append"},

		{name: "delete a first query, merging the rest into the window before", stream: []q{{'A', 0}, {'B', 10}, {'A', 12}}, before: "1[1] 2[2 3]",
			del: 2, after: "1[1 3]", edits: "delete merge"},
		{name: "delete a first query, the rest standing", stream: []q{{'A', 0}, {'A', 60}, {'A', 61}}, before: "1[1] 2[2 3]",
			del: 2, after: "1[1] 3[3]", edits: "delete"},
		{name: "delete a middle query, splitting the window", stream: []q{{'A', 0}, {'A', 4}, {'B', 8}}, before: "1[1 2 3]",
			del: 2, after: "1[1] 3[3]", edits: "delete split"},
		{name: "delete a middle query, the window holding", stream: []q{{'A', 0}, {'A', 1}, {'A', 2}}, before: "1[1 2 3]",
			del: 2, after: "1[1 3]", edits: "delete"},
		{name: "delete a last query, merging the next window in", stream: []q{{'A', 0}, {'B', 4}, {'A', 12}}, before: "1[1 2] 3[3]",
			del: 2, after: "1[1 3]", edits: "delete merge"},
		{name: "delete a last query, the next window standing", stream: []q{{'A', 0}, {'A', 1}, {'A', 60}}, before: "1[1 2] 3[3]",
			del: 2, after: "1[1] 3[3]", edits: "delete"},
		{name: "delete an only query, merging its neighbours", stream: []q{{'A', 0}, {'B', 8}, {'A', 16}}, before: "1[1] 2[2] 3[3]",
			del: 2, after: "1[1 3]", edits: "delete merge"},
		{name: "delete an only query, its neighbours standing", stream: []q{{'A', 0}, {'A', 60}, {'A', 120}}, before: "1[1] 2[2] 3[3]",
			del: 2, after: "1[1] 3[3]", edits: "delete"},
		{name: "delete a user's only query", stream: []q{{'A', 0}}, before: "1[1]",
			del: 1, after: "", edits: "delete"},

		{name: "text repair raising the boundary in front of it", stream: []q{{'A', 0}, {'A', 10}}, before: "1[1 2]",
			retext: 2, to: 'B', after: "1[1] 2[2]", edits: "retext split"},
		{name: "text repair lowering the boundary in front of it", stream: []q{{'A', 0}, {'B', 10}}, before: "1[1] 2[2]",
			retext: 2, to: 'A', after: "1[1 2]", edits: "retext merge"},
		{name: "text repair raising the boundary behind it", stream: []q{{'A', 0}, {'A', 10}}, before: "1[1 2]",
			retext: 1, to: 'B', after: "1[1] 2[2]", edits: "retext split"},
		{name: "text repair lowering the boundary behind it", stream: []q{{'B', 0}, {'A', 10}}, before: "1[1] 2[2]",
			retext: 1, to: 'A', after: "1[1 2]", edits: "retext merge"},
		{name: "text repair flipping both boundaries", stream: []q{{'A', 0}, {'B', 10}, {'B', 20}}, before: "1[1] 2[2 3]",
			retext: 2, to: 'A', after: "1[1 2] 3[3]", edits: "retext split merge"},

		{name: "replayed put moving a query into a window, which takes its lower ID", stream: []q{{'A', 0}, {'A', 60}}, before: "1[1] 2[2]",
			move: 1, at: 59, after: "1[1 2]", edits: "insert delete"},
	}
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := storage.NewStore()
			live := AttachLive(store)
			reg := telemetry.NewRegistry()
			live.EnableMetrics(reg)
			for _, s := range tc.stream {
				makeRecord(t, store, "alice", texts[s.kind], base.Add(time.Duration(s.minute)*time.Minute))
			}
			if got := layout(live, "alice"); got != tc.before {
				t.Fatalf("the stream segments as %q, the case assumes %q", got, tc.before)
			}
			counted := func() map[string]uint64 {
				m := make(map[string]uint64)
				for _, kind := range editKinds {
					m[kind] = reg.CounterVec("cqms_sessions_edits_total", "", "kind").With(kind).Value()
				}
				return m
			}
			editsBefore, cuts := counted(), live.BoundaryEvaluations()
			switch {
			case tc.put != nil:
				makeRecord(t, store, "alice", texts[tc.put.kind], base.Add(time.Duration(tc.put.minute)*time.Minute))
			case tc.del != 0:
				if err := store.Delete(storage.QueryID(tc.del), admin); err != nil {
					t.Fatal(err)
				}
			case tc.move != 0:
				rec, err := store.Snapshot().Get(storage.QueryID(tc.move), admin)
				if err != nil {
					t.Fatal(err)
				}
				moved := rec.Clone()
				moved.IssuedAt = base.Add(time.Duration(tc.at) * time.Minute)
				if err := store.Apply(&storage.Mutation{Op: storage.OpPut, Record: moved}); err != nil {
					t.Fatal(err)
				}
			default:
				upd, err := storage.NewRecordFromSQL(texts[tc.to])
				if err != nil {
					t.Fatal(err)
				}
				if err := store.ReplaceText(storage.QueryID(tc.retext), upd); err != nil {
					t.Fatal(err)
				}
			}
			if got := layout(live, "alice"); got != tc.after {
				t.Errorf("layout after the edit = %q, want %q", got, tc.after)
			}
			if got := live.BoundaryEvaluations() - cuts; got > 2 {
				t.Errorf("the edit cost %d boundary evaluations, want at most 2", got)
			}
			var kinds []string
			for _, kind := range editKinds {
				if counted()[kind] != editsBefore[kind] {
					kinds = append(kinds, kind)
				}
			}
			if got := strings.Join(kinds, " "); got != tc.edits {
				t.Errorf("edits counted = %q, want %q", got, tc.edits)
			}
			if got := reg.Counter("cqms_sessions_edge_labels_total", "").Value(); got != 0 {
				t.Errorf("%d edge labels computed by writes", got)
			}
			assertMatchesBatch(t, live, store)
		})
	}
}

// TestSessionIDsSurviveEdits pins what the ID rule promises a paging client
// over random histories: logging a query never renames a session. After every
// put of a new query, a session ID tracked before it is still tracked, or its
// session merged into one with a lower ID; no ID moves to another session.
func TestSessionIDsSurviveEdits(t *testing.T) {
	merged := 0
	for seed := int64(31); seed <= 34; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := storage.NewStore()
		live := AttachLive(store)
		tracked := map[int64]bool{} // session IDs before the step
		count := store.Count()
		mutateSessionStream(t, rng, store, 400, func() {
			put := store.Count() > count
			now := map[int64]bool{}
			for _, s := range live.Export() {
				now[s.ID] = true
			}
			for id := range tracked {
				if !put || now[id] {
					continue
				}
				// The session it named must now sit inside one with a lower ID.
				merged++
				rec, err := store.Snapshot().Get(storage.QueryID(id), admin)
				if err != nil {
					t.Fatalf("seed %d: a put removed query %d", seed, id)
				}
				if holder := live.SessionOf(rec); holder >= id {
					t.Fatalf("seed %d: a put renamed session %d to %d", seed, id, holder)
				}
			}
			tracked, count = now, store.Count()
		})
	}
	if merged == 0 {
		t.Fatal("no put merged two sessions")
	}
}

// TestSessionOfFindsEveryRecord: after every step of random histories,
// SessionOf answers, for every version of every record the store holds, the
// window that holds it, and 0 for a record deleted since it was read.
func TestSessionOfFindsEveryRecord(t *testing.T) {
	for seed := int64(41); seed <= 43; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := storage.NewStore()
		live := AttachLive(store)
		var before []*storage.QueryRecord
		mutateSessionStream(t, rng, store, 300, func() {
			holder := map[storage.QueryID]int64{}
			live.mu.RLock()
			for _, w := range live.byID {
				for _, q := range w.queries {
					holder[q.ID] = w.id
				}
			}
			live.mu.RUnlock()
			now := store.Snapshot().Records(admin)
			for _, rec := range now {
				if got := live.SessionOf(rec); got != holder[rec.ID] || got == 0 {
					t.Fatalf("seed %d: SessionOf(query %d) = %d, the window holding it is %d", seed, rec.ID, got, holder[rec.ID])
				}
			}
			for _, rec := range before {
				if _, err := store.Snapshot().Get(rec.ID, admin); err != nil {
					if got := live.SessionOf(rec); got != 0 {
						t.Fatalf("seed %d: SessionOf(deleted query %d) = %d, want 0", seed, rec.ID, got)
					}
				} else if got := live.SessionOf(rec); got != holder[rec.ID] {
					t.Fatalf("seed %d: SessionOf(an older version of query %d) = %d, want %d", seed, rec.ID, got, holder[rec.ID])
				}
			}
			before = now
		})
	}
}

// TestLiveFastPathMatchesFigure2 pins the append path against the canonical
// Figure 2 trace: one session, investigation/modification edges identical to
// the batch detector's.
func TestLiveFastPathMatchesFigure2(t *testing.T) {
	store := storage.NewStore()
	live := AttachLive(store)
	base := time.Date(2009, 1, 5, 14, 30, 0, 0, time.UTC)
	figure2Trace(t, store, "nodira", base)
	assertMatchesBatch(t, live, store)
	sums := live.Summaries(admin, 0, 0)
	if len(sums) != 1 || sums[0].QueryCount != 6 {
		t.Fatalf("summaries = %+v, want one 6-query session", sums)
	}
	sess, ok, visible := live.Get(admin, sums[0].ID)
	if !ok || !visible {
		t.Fatalf("Get(%d) = ok=%v visible=%v", sums[0].ID, ok, visible)
	}
	if len(sess.Edges) != 5 {
		t.Fatalf("edges = %d, want 5", len(sess.Edges))
	}
}

// TestLiveVisibilityTracksUpdates proves a visibility flip propagates into
// session reads: the swapped-in record version governs who sees the window.
func TestLiveVisibilityTracksUpdates(t *testing.T) {
	store := storage.NewStore()
	live := AttachLive(store)
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	rec := makeRecord(t, store, "alice", "SELECT temp FROM WaterTemp", base)
	stranger := storage.Principal{User: "eve"}
	if got := live.Summaries(stranger, 0, 0); len(got) != 1 {
		t.Fatalf("stranger sees %d public sessions, want 1", len(got))
	}
	if err := store.SetVisibility(rec.ID, admin, storage.VisibilityPrivate); err != nil {
		t.Fatal(err)
	}
	if got := live.Summaries(stranger, 0, 0); len(got) != 0 {
		t.Fatalf("stranger sees %d private sessions, want 0", len(got))
	}
	if _, ok, visible := live.Get(stranger, 1); !ok || visible {
		t.Fatalf("stranger's Get of a private session = ok %v, visible %v", ok, visible)
	}
	if got := live.Summaries(storage.Principal{User: "alice"}, 0, 0); len(got) != 1 {
		t.Fatalf("owner sees %d sessions, want 1", len(got))
	}
}

// TestLiveSummariesCursor pages through a listing whose IDs are not in
// chronological order (late arrivals and deletions name sessions by older or
// newer queries) and whose middle has been retired by merges.
func TestLiveSummariesCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	store := storage.NewStore()
	live := AttachLive(store)
	mutateSessionStream(t, rng, store, 300, nil)
	all := live.Summaries(admin, 0, 0)
	if len(all) < 10 || live.Count() != len(all) {
		t.Fatalf("%d sessions listed, %d tracked", len(all), live.Count())
	}
	var paged []Summary
	for after := int64(0); ; {
		page := live.Summaries(admin, after, 3)
		if len(page) == 0 {
			break
		}
		paged = append(paged, page...)
		after = page[len(page)-1].ID
	}
	if !reflect.DeepEqual(paged, all) {
		t.Fatalf("paging in threes lists %d sessions, the unbounded listing %d", len(paged), len(all))
	}
	if _, ok, _ := live.Get(admin, all[len(all)-1].ID+1); ok {
		t.Fatal("Get found a session beyond the last ID")
	}
}

// assertSameSessions compares two detectors session by session, IDs included.
func assertSameSessions(t *testing.T, name string, got, want *Live) {
	t.Helper()
	g, w := canonicalize(got.Export()), canonicalize(want.Export())
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: sessions (with IDs) diverge\n got: %+v\nwant: %+v", name, g, w)
	}
}

// TestLiveEquivalenceAfterWALRecovery proves the detector survives a crash:
// a full replay of the log and a recovery from snapshot plus tail — which
// rebuilds the detector from the snapshot's records and then replays the
// tail — both end with the windows and the session IDs of the live primary,
// and equal a batch re-segmentation of the recovered store.
func TestLiveEquivalenceAfterWALRecovery(t *testing.T) {
	for _, snapshot := range []bool{true, false} {
		t.Run(fmt.Sprintf("sidecar=%v", snapshot), func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(23))
			store1 := storage.NewStore()
			live1 := AttachLive(store1)
			wcfg := wal.DefaultConfig(dir)
			wcfg.SyncPolicy = "off"
			mgr1, _, err := wal.Open(store1, wcfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			mutateSessionStream(t, rng, store1, 150, nil)
			if snapshot {
				if _, _, err := mgr1.Snapshot(); err != nil {
					t.Fatal(err)
				}
				mutateSessionStream(t, rng, store1, 60, nil)
			}
			if err := mgr1.Close(); err != nil {
				t.Fatal(err)
			}

			store2 := storage.NewStore()
			live2 := AttachLive(store2)
			mgr2, info, err := wal.Open(store2, wcfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer mgr2.Close()
			if snapshot && info.SnapshotSeq == 0 {
				t.Fatalf("no snapshot recovered: %+v", info)
			}
			assertMatchesBatch(t, live2, store2)
			assertSameSessions(t, "recovered", live2, live1)
		})
	}
}

// TestRebuildIsDeterministic proves two rebuilds of one store, and batch
// Detect over it, agree on every session ID, however many users the store
// holds and whatever order a map yields them in.
func TestRebuildIsDeterministic(t *testing.T) {
	store := storage.NewStore()
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 120; i++ {
		user := fmt.Sprintf("user%02d", (i*7)%40)
		makeRecord(t, store, user, "SELECT temp FROM WaterTemp", base.Add(time.Duration(i)*17*time.Minute))
	}
	first := AttachLive(store)
	assertMatchesBatch(t, first, store)
	for i := 0; i < 5; i++ {
		assertSameSessions(t, "second rebuild", AttachLive(store), first)
	}
}

// TestLiveEquivalenceAfterRestoreState proves the Reset path re-segments
// wholesale-replaced contents, and names the sessions as the store they came
// from did.
func TestLiveEquivalenceAfterRestoreState(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	store1 := storage.NewStore()
	live1 := AttachLive(store1)
	mutateSessionStream(t, rng, store1, 100, nil)

	store2 := storage.NewStore()
	live2 := AttachLive(store2)
	mutateSessionStream(t, rng, store2, 30, nil)
	if err := store2.RestoreState(stateCopy(store1)); err != nil {
		t.Fatal(err)
	}
	assertMatchesBatch(t, live2, store2)
	assertSameSessions(t, "restored", live2, live1)
}

// stateCopy is a deep copy of the store's state, safe to hand to another
// store's RestoreState: the copies' shapes carry no number, so the restore
// numbers them in ID order.
func stateCopy(s *storage.Store) *storage.StoreState {
	st := s.CaptureState(nil)
	for i, rec := range st.Records {
		st.Records[i] = rec.Clone()
	}
	st.Shapes, st.NextShape = nil, 0
	return st
}
