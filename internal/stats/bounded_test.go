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

// principalsOf returns the principals every contract check runs under: admin,
// each vocabulary user, and a stranger with no queries.
func principalsOf() []storage.Principal {
	ps := []storage.Principal{admin, {User: "eve"}}
	for _, u := range users {
		ps = append(ps, storage.Principal{User: u, Groups: []string{"limnology"}})
	}
	return ps
}

// assertBoundedContract verifies the approximation contract of the bounded
// listing reads against an exact reference (a default-capacity rebuild, whose
// summaries never overflow on the test vocabulary):
//
//   - every item a bounded listing reports carries its exact count, and
//   - every item with true count above the reported miss bound appears, and
//   - a zero bound means the listing is the complete exact listing.
func assertBoundedContract(t *testing.T, live *stats.Tracker, store *storage.Store) {
	t.Helper()
	exact := stats.Attach(store)
	for _, p := range principalsOf() {
		bounds := live.Bounds(p)

		// Tables.
		wantTables := make(map[string]int)
		for _, tc := range exact.TableCounts(p) {
			wantTables[tc.Table] = tc.Count
		}
		gotTables := make(map[string]int)
		for _, tc := range live.TableCounts(p) {
			gotTables[tc.Table] = tc.Count
		}
		checkListing(t, p, "tables", gotTables, wantTables, bounds.Tables)
		if bounds.Tables == 0 && !reflect.DeepEqual(live.TableCounts(p), exact.TableCounts(p)) {
			t.Errorf("principal %+v: zero table bound but listings differ", p)
		}

		// Users.
		wantUsers := make(map[string]int)
		for _, uc := range exact.UserActivity(p) {
			wantUsers[uc.User] = uc.Queries
		}
		gotUsers := make(map[string]int)
		for _, uc := range live.UserActivity(p) {
			gotUsers[uc.User] = uc.Queries
		}
		checkListing(t, p, "users", gotUsers, wantUsers, bounds.Users)

		// Predicates and fingerprints: the exact reference is a scan of the
		// records.
		wantFPs, wantPreds := exactCounts(store, p)
		gotPreds := make(map[string]int)
		for _, ic := range live.TopPredicates(p, 0) {
			gotPreds[ic.Item] = ic.Count
		}
		checkListing(t, p, "predicates", gotPreds, wantPreds, bounds.Predicates)
		if got := live.FingerprintCountsFor(p, vocabFingerprints); !reflect.DeepEqual(got, wantFPs) {
			t.Errorf("principal %+v: fingerprint counts %v, exact %v", p, got, wantFPs)
		}

		// The popularity normaliser may undershoot by at most the bound.
		trueMax := 0
		for _, n := range wantFPs {
			if n > trueMax {
				trueMax = n
			}
		}
		if gotMax := live.MaxFingerprintCount(p); gotMax > trueMax || gotMax < trueMax-bounds.Fingerprints {
			t.Errorf("principal %+v: MaxFingerprintCount = %d, true max %d, bound %d",
				p, gotMax, trueMax, bounds.Fingerprints)
		}
	}
}

// checkListing asserts one bounded listing against its exact counts: reported
// counts exact, omissions only below the bound.
func checkListing[K comparable](t *testing.T, p storage.Principal, dim string, got, want map[K]int, bound int) {
	t.Helper()
	for key, n := range got {
		if want[key] != n {
			t.Errorf("principal %+v %s: listed %v with count %d, exact is %d", p, dim, key, n, want[key])
		}
	}
	for key, n := range want {
		if _, ok := got[key]; !ok && n > bound {
			t.Errorf("principal %+v %s: %v with count %d missing from listing (bound %d)",
				p, dim, key, n, bound)
		}
	}
}

// TestBoundedListingContract forces evictions with tiny summary capacities
// over random mutation histories and checks the approximation contract the
// API documents.
func TestBoundedListingContract(t *testing.T) {
	for _, capacity := range []int{2, 4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("capacity=%d/seed=%d", capacity, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				store := storage.NewStore()
				live := stats.AttachWithCapacity(store, capacity)
				mutateRandomly(t, rng, store, 300)
				if got := live.Bounds(admin).Capacity; got != capacity {
					t.Fatalf("Bounds().Capacity = %d, want %d", got, capacity)
				}
				assertBoundedContract(t, live, store)
			})
		}
	}
}

// TestBoundedContractAfterWALRecovery proves the contract survives a crash:
// the recovered tracker (rebuilt from the snapshot's records, plus tail
// replay) still reports exact counts within valid bounds, and its exact
// counter surfaces equal the pre-crash ones.
func TestBoundedContractAfterWALRecovery(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(21))

	store1 := storage.NewStore()
	tracker1 := stats.AttachWithCapacity(store1, 4)
	cfg := wal.DefaultConfig(dir)
	cfg.SyncPolicy = "off"
	mgr1, _, err := wal.Open(store1, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	mutateRandomly(t, rng, store1, 200)
	// Snapshot mid-history so recovery exercises the rebuild + tail replay;
	// the tail keeps maintaining the reseeded summaries.
	if _, _, err := mgr1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mutateRandomly(t, rng, store1, 100)
	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}
	preFPs := tracker1.FingerprintCountsFor(admin, vocabFingerprints)
	_, prePreds := exactCounts(store1, admin)

	store2 := storage.NewStore()
	tracker2 := stats.AttachWithCapacity(store2, 4)
	mgr2, _, err := wal.Open(store2, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	assertBoundedContract(t, tracker2, store2)
	// The exact counters are bit-identical across the crash; only summary
	// membership (which stays within bounds) may differ.
	if !reflect.DeepEqual(preFPs, tracker2.FingerprintCountsFor(admin, vocabFingerprints)) {
		t.Error("fingerprint counts changed across recovery")
	}
	if _, postPreds := exactCounts(store2, admin); !reflect.DeepEqual(prePreds, postPreds) {
		t.Error("predicate counts changed across recovery")
	}
}

// TestBoundedContractAfterRebuild rebuilds a tracker from the store at small
// capacity: the rebuilt summaries are seeded from the exact maps and must
// satisfy the contract with bounds no looser than the incrementally
// maintained tracker's.
func TestBoundedContractAfterRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	store := storage.NewStore()
	tracker1 := stats.AttachWithCapacity(store, 4)
	mutateRandomly(t, rng, store, 250)

	tracker2 := stats.NewWithCapacity(4)
	tracker2.Rebuild(store)
	assertBoundedContract(t, tracker2, store)
	for _, p := range principalsOf() {
		if got, want := tracker2.QueryCount(p), tracker1.QueryCount(p); got != want {
			t.Errorf("principal %+v: rebuilt QueryCount = %d, want %d", p, got, want)
		}
		if !reflect.DeepEqual(tracker2.FingerprintCountsFor(p, vocabFingerprints), tracker1.FingerprintCountsFor(p, vocabFingerprints)) {
			t.Errorf("principal %+v: rebuilt fingerprint counts differ", p)
		}
		// Seeding from the exact maps yields the tightest bounds possible,
		// never looser than the incrementally maintained tracker's.
		got, want := tracker2.Bounds(p), tracker1.Bounds(p)
		if got.Tables > want.Tables || got.Users > want.Users ||
			got.Predicates > want.Predicates || got.Fingerprints > want.Fingerprints {
			t.Errorf("principal %+v: rebuilt bounds %+v looser than live %+v", p, got, want)
		}
	}
}

// TestConcurrentBoundedReads drives the bounded read API concurrently with
// writers at small capacity; under -race it proves the locking of the new
// read paths, and the contract is re-checked once writers quiesce.
func TestConcurrentBoundedReads(t *testing.T) {
	store := storage.NewStore()
	tracker := stats.AttachWithCapacity(store, 4)
	rng := rand.New(rand.NewSource(123))
	mutateRandomly(t, rng, store, 50)

	var readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			p := storage.Principal{User: users[r%len(users)]}
			if r == 0 {
				p = admin
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				tracker.TableCounts(p)
				tracker.UserActivity(p)
				tracker.TopPredicates(p, 10)
				tracker.MaxFingerprintCount(p)
				tracker.FingerprintCountsFor(p, []uint64{1, 2, 3})
				tracker.Bounds(p)
			}
		}(r)
	}
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			wrng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				mustPut(t, store, genRecord(t, wrng))
			}
		}(int64(w + 1))
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	assertBoundedContract(t, tracker, store)
}

// TestConcurrentReadsSettleOwnerBuckets: owner buckets, whether writes or a
// rebuild made them, are lists until their owner first reads; readers of one
// owner race each other and the writers to build it, under -race, and the
// contract holds once they stop.
func TestConcurrentReadsSettleOwnerBuckets(t *testing.T) {
	store := storage.NewStore()
	tracker := stats.AttachWithCapacity(store, 4)
	rng := rand.New(rand.NewSource(17))
	mutateRandomly(t, rng, store, 200)
	if built, listed := stats.BuiltOwners(tracker); built != 0 || listed == 0 {
		t.Fatalf("after writes alone, %d owner buckets are built and %d listed; want none built", built, listed)
	}
	tracker.Rebuild(store)
	if built, listed := stats.BuiltOwners(tracker); built != 0 || listed == 0 {
		t.Fatalf("after a rebuild, %d owner buckets are built and %d listed; want none built", built, listed)
	}

	var readers sync.WaitGroup
	for r := 0; r < 6; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			p := storage.Principal{User: users[r%len(users)]}
			for i := 0; i < 50; i++ {
				tracker.UserActivity(p)
				tracker.Bounds(p)
				tracker.ColumnCounts(p, []string{"WaterTemp"})
				tracker.QueryCount(p)
			}
		}(r)
	}
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		wrng := rand.New(rand.NewSource(3))
		for i := 0; i < 100; i++ {
			mustPut(t, store, genRecord(t, wrng))
		}
	}()
	writers.Wait()
	readers.Wait()
	// A write after an owner's last read can leave a new bucket as a list;
	// one more read by every owner builds them all, and they stay built.
	for _, u := range users {
		tracker.QueryCount(storage.Principal{User: u})
	}
	if built, listed := stats.BuiltOwners(tracker); built == 0 || listed != 0 {
		t.Errorf("%d owner buckets still listed (%d built) after every owner read", listed, built)
	}
	assertBoundedContract(t, tracker, store)
}
