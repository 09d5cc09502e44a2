package stats_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/wal"
)

var (
	admin = storage.Principal{Admin: true}
	users = []string{"alice", "bob", "carol"}
)

// genSQL produces a parseable query over a small vocabulary, mixing
// single-table selections, concrete predicates and equi-joins so every
// counter family (attributes, predicates, joins, fingerprints) is exercised.
func genSQL(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("SELECT temp FROM WaterTemp WHERE temp < %d", rng.Intn(30))
	case 1:
		return fmt.Sprintf("SELECT WaterSalinity.salinity FROM WaterSalinity WHERE WaterSalinity.salinity > %d", rng.Intn(10))
	case 2:
		return fmt.Sprintf(
			"SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x AND WaterTemp.temp < %d",
			rng.Intn(25))
	default:
		return fmt.Sprintf("SELECT city FROM CityLocations WHERE pop > %d", rng.Intn(5)*10000)
	}
}

// vocabFingerprints are the template fingerprints of every shape genSQL
// draws: every key a tracker fed by these tests can count.
var vocabFingerprints = func() []uint64 {
	seen := make(map[uint64]bool)
	var fps []uint64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		rec, err := storage.NewRecordFromSQL(genSQL(rng))
		if err != nil {
			panic(err)
		}
		if !seen[rec.Fingerprint] {
			seen[rec.Fingerprint] = true
			fps = append(fps, rec.Fingerprint)
		}
	}
	return fps
}()

// exactCounts scans the records the principal's counters cover — the whole
// log for an admin, else the public records plus the principal's own — and
// counts them as the tracker does: one per record for its template
// fingerprint, one per occurrence in a record for a concrete predicate.
func exactCounts(store *storage.Store, p storage.Principal) (fps map[uint64]int, preds map[string]int) {
	fps, preds = make(map[uint64]int), make(map[string]int)
	for _, rec := range store.Snapshot().Records(admin) {
		if !p.Admin && rec.Visibility != storage.VisibilityPublic && rec.User != p.User {
			continue
		}
		fps[rec.Fingerprint]++
		for _, pr := range rec.Predicates {
			if !pr.IsJoin {
				preds[pr.Text()]++
			}
		}
	}
	return fps, preds
}

func genRecord(t testing.TB, rng *rand.Rand) *storage.QueryRecord {
	t.Helper()
	rec, err := storage.NewRecordFromSQL(genSQL(rng))
	if err != nil {
		t.Fatalf("NewRecordFromSQL: %v", err)
	}
	rec.User = users[rng.Intn(len(users))]
	rec.Group = "limnology"
	rec.Visibility = storage.Visibility(rng.Intn(3))
	return rec
}

// liveIDs collects the IDs currently in the store.
func liveIDs(s *storage.Store) []storage.QueryID {
	var ids []storage.QueryID
	s.Snapshot().Scan(admin, func(rec *storage.QueryRecord) bool {
		ids = append(ids, rec.ID)
		return true
	})
	return ids
}

// mustPut stores rec and fails the test (without stopping it: writers run on
// other goroutines too) if the store refuses it.
func mustPut(t testing.TB, s *storage.Store, rec *storage.QueryRecord) storage.QueryID {
	t.Helper()
	id, err := s.Put(rec)
	if err != nil {
		t.Errorf("Put: %v", err)
	}
	return id
}

// mustPutBatch is mustPut for PutBatch.
func mustPutBatch(t testing.TB, s *storage.Store, recs []*storage.QueryRecord) []storage.QueryID {
	t.Helper()
	ids, errs := s.PutBatch(recs)
	if errs != nil {
		t.Errorf("PutBatch: %v", errs)
	}
	return ids
}

// mutateRandomly drives n random mutations — every op the tracker must stay
// correct under, plus the ops it must ignore — against the store.
func mutateRandomly(t testing.TB, rng *rand.Rand, s *storage.Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ids := liveIDs(s)
		pick := func() storage.QueryID { return ids[rng.Intn(len(ids))] }
		op := rng.Intn(10)
		if len(ids) == 0 {
			op = 0
		}
		switch op {
		case 0, 1, 2: // keep the store growing
			mustPut(t, s, genRecord(t, rng))
		case 3:
			batch := make([]*storage.QueryRecord, rng.Intn(3)+1)
			for j := range batch {
				batch[j] = genRecord(t, rng)
			}
			mustPutBatch(t, s, batch)
		case 4:
			if err := s.Delete(pick(), admin); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		case 5:
			if err := s.SetVisibility(pick(), admin, storage.Visibility(rng.Intn(3))); err != nil {
				t.Fatalf("SetVisibility: %v", err)
			}
		case 6:
			id := pick()
			upd, err := storage.NewRecordFromSQL(genSQL(rng))
			if err != nil {
				t.Fatalf("NewRecordFromSQL: %v", err)
			}
			if err := s.ReplaceText(id, upd); err != nil {
				t.Fatalf("ReplaceText: %v", err)
			}
		case 7:
			if err := s.Annotate(pick(), admin, storage.Annotation{Author: "admin", Text: "note"}); err != nil {
				t.Fatalf("Annotate: %v", err)
			}
		case 8:
			if err := s.MarkInvalid(pick(), "schema drift"); err != nil {
				t.Fatalf("MarkInvalid: %v", err)
			}
		default:
			if err := s.MarkStatsStale(pick(), rng.Intn(2) == 0); err != nil {
				t.Fatalf("MarkStatsStale: %v", err)
			}
		}
	}
}

// observation is everything the tracker's read API reports for one
// principal, used to compare an incrementally maintained tracker against a
// from-scratch rebuild.
type observation struct {
	Queries      int
	Tables       []storage.TableCount
	Activity     []stats.UserCount
	Fingerprints map[uint64]int
	Columns      map[string]int
	Predicates   map[string]int
	GlobalPreds  []stats.ItemCount
	Joins        map[string]int
}

func observe(t *stats.Tracker, p storage.Principal, tables []string) observation {
	return observation{
		Queries:      t.QueryCount(p),
		Tables:       t.TableCounts(p),
		Activity:     t.UserActivity(p),
		Fingerprints: t.FingerprintCountsFor(p, vocabFingerprints),
		Columns:      t.ColumnCounts(p, tables),
		Predicates:   t.PredicateCounts(p, tables),
		GlobalPreds:  t.TopPredicates(p, 0),
		Joins:        t.JoinCounts(p, tables),
	}
}

// assertMatchesRebuild asserts the live tracker's counters are identical to
// a from-scratch full-scan rebuild over the same store, across admin, every
// user and a stranger, over every table context.
func assertMatchesRebuild(t *testing.T, live *stats.Tracker, store *storage.Store) {
	t.Helper()
	rebuilt := stats.Attach(store)
	var allTables []string
	for _, tc := range rebuilt.TableCounts(admin) {
		allTables = append(allTables, tc.Table)
	}
	principals := []storage.Principal{admin, {User: "eve"}}
	for _, u := range users {
		principals = append(principals, storage.Principal{User: u, Groups: []string{"limnology"}})
	}
	for _, p := range principals {
		got := observe(live, p, allTables)
		want := observe(rebuilt, p, allTables)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("principal %+v: incremental counters diverge from rebuild\n got: %+v\nwant: %+v", p, got, want)
		}
		// Single-table contexts exercise the per-table filters.
		for _, tbl := range allTables {
			gotOne := observe(live, p, []string{tbl})
			wantOne := observe(rebuilt, p, []string{tbl})
			if !reflect.DeepEqual(gotOne, wantOne) {
				t.Errorf("principal %+v table %s: diverged\n got: %+v\nwant: %+v", p, tbl, gotOne, wantOne)
			}
		}
	}
}

// TestRandomizedMutationEquivalence is the core correctness property of the
// stats subsystem: after an arbitrary mutation history (Put, PutBatch,
// Delete, SetVisibility, ReplaceText, Annotate, invalidation, staleness
// flags), the incrementally maintained counters equal a from-scratch
// full-scan rebuild.
func TestRandomizedMutationEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			store := storage.NewStore()
			tracker := stats.Attach(store)
			mutateRandomly(t, rng, store, 400)
			assertMatchesRebuild(t, tracker, store)
		})
	}
}

// TestEquivalenceAfterWALRecovery proves the counters survive a crash:
// a tracker attached to a fresh store before WAL recovery is rebuilt
// incrementally by the replay stream (and the snapshot Reset hook) and ends
// identical to a full-scan rebuild — and to the pre-crash counters.
func TestEquivalenceAfterWALRecovery(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(42))

	store1 := storage.NewStore()
	tracker1 := stats.Attach(store1)
	cfg := wal.DefaultConfig(dir)
	cfg.SyncPolicy = "off"
	mgr1, _, err := wal.Open(store1, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	mutateRandomly(t, rng, store1, 200)
	// A mid-history snapshot plus more mutations exercises both recovery
	// paths at once: RestoreState (Reset rebuild) then tail replay.
	if _, _, err := mgr1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mutateRandomly(t, rng, store1, 100)
	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}
	preCrash := observe(tracker1, admin, []string{"WaterTemp", "WaterSalinity", "CityLocations"})

	store2 := storage.NewStore()
	tracker2 := stats.Attach(store2)
	mgr2, info, err := wal.Open(store2, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if info.Queries != store1.Count() {
		t.Fatalf("recovered %d queries, want %d", info.Queries, store1.Count())
	}
	assertMatchesRebuild(t, tracker2, store2)
	postCrash := observe(tracker2, admin, []string{"WaterTemp", "WaterSalinity", "CityLocations"})
	if !reflect.DeepEqual(preCrash, postCrash) {
		t.Errorf("counters changed across recovery\n pre: %+v\npost: %+v", preCrash, postCrash)
	}
}

// TestEquivalenceAfterRestoreState proves the Reset hook rebuilds the
// tracker when the store contents are wholesale-replaced.
func TestEquivalenceAfterRestoreState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	store1 := storage.NewStore()
	stats.Attach(store1)
	mutateRandomly(t, rng, store1, 150)
	st := stateCopy(store1)

	store2 := storage.NewStore()
	tracker2 := stats.Attach(store2)
	// Pre-existing contents must be fully replaced, in the tracker too.
	mutateRandomly(t, rng, store2, 30)
	if err := store2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	assertMatchesRebuild(t, tracker2, store2)
	if got, want := tracker2.QueryCount(admin), store2.Count(); got != want {
		t.Errorf("QueryCount = %d, want %d", got, want)
	}
}

// TestConcurrentReadsDuringMutations drives mutations and counter reads in
// parallel; run under -race it proves the tracker's locking. Equivalence is
// re-checked once writers quiesce.
func TestConcurrentReadsDuringMutations(t *testing.T) {
	store := storage.NewStore()
	tracker := stats.Attach(store)
	rng := rand.New(rand.NewSource(99))
	// Seed so readers have something to merge.
	mutateRandomly(t, rng, store, 50)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			p := storage.Principal{User: users[r%len(users)]}
			for {
				select {
				case <-stop:
					return
				default:
				}
				tracker.QueryCount(p)
				tracker.TableCounts(p)
				tracker.ColumnCounts(p, []string{"WaterTemp", "WaterSalinity"})
				tracker.PredicateCounts(p, []string{"WaterTemp"})
				tracker.JoinCounts(p, []string{"WaterTemp", "WaterSalinity"})
				tracker.FingerprintCountsFor(p, vocabFingerprints)
				tracker.UserActivity(p)
			}
		}(r)
	}
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			wrng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				mustPut(t, store, genRecord(t, wrng))
			}
		}(int64(w + 1))
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	assertMatchesRebuild(t, tracker, store)
}

// TestTableCountsCountASelfJoinOnce: a query referencing one table twice (a
// self-join) is one query over that table, for every principal that sees it.
func TestTableCountsCountASelfJoinOnce(t *testing.T) {
	store := storage.NewStore()
	tracker := stats.Attach(store)
	rec, err := storage.NewRecordFromSQL("SELECT a.temp FROM WaterTemp a, WaterTemp b WHERE a.loc_x = b.loc_x")
	if err != nil {
		t.Fatal(err)
	}
	rec.User = "alice"
	rec.Visibility = storage.VisibilityPublic
	mustPut(t, store, rec)
	want := []storage.TableCount{{Table: "WaterTemp", Count: 1}}
	for _, p := range []storage.Principal{admin, {User: "alice"}, {User: "eve"}} {
		if got := tracker.TableCounts(p); !reflect.DeepEqual(got, want) {
			t.Errorf("TableCounts(%+v) = %+v, want %+v", p, got, want)
		}
	}
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
