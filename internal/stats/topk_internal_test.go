package stats

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
)

// checkInvariants asserts the structural invariants of a summary against the
// exact counts it was fed: the positional index mirrors the heap, the
// min-heap property holds, every tracked count is exact, and every untracked
// key's true count is within the miss watermark.
func checkInvariants(t *testing.T, s *topkSummary[string], exact map[string]int) {
	t.Helper()
	if len(s.heap) != len(s.pos) {
		t.Fatalf("heap has %d entries but pos has %d", len(s.heap), len(s.pos))
	}
	if len(s.heap) > s.capacity {
		t.Fatalf("heap has %d entries, capacity %d", len(s.heap), s.capacity)
	}
	for i, e := range s.heap {
		if s.pos[e.key] != i {
			t.Fatalf("pos[%q] = %d, want %d", e.key, s.pos[e.key], i)
		}
		if parent := (i - 1) / 2; i > 0 && e.below(s.heap[parent]) {
			t.Fatalf("heap property violated at %d: child %+v ranks below parent %+v",
				i, e, s.heap[parent])
		}
		if exact[e.key] != e.count {
			t.Fatalf("tracked %q has count %d, exact is %d", e.key, e.count, exact[e.key])
		}
	}
	for key, n := range exact {
		if n > 0 && !s.contains(key) && n > s.missedBound {
			t.Fatalf("untracked %q has count %d > missedBound %d", key, n, s.missedBound)
		}
	}
}

// newTopK returns an empty summary, for the tests that feed one update by
// update.
func newTopK[K cmp.Ordered](capacity int) *topkSummary[K] {
	return &topkSummary[K]{capacity: capacity, pos: make(map[K]int)}
}

// tallies is counts as a dimension's exact map holds them, to seed a summary
// from.
func tallies(counts map[string]int) map[string]tally {
	out := make(map[string]tally, len(counts))
	for k, n := range counts {
		out[k] = tally(n)
	}
	return out
}

func TestTopKAdmissionAndEviction(t *testing.T) {
	s := newTopK[string](2)
	s.update("a", 5)
	s.update("b", 3)
	if s.len() != 2 || !s.contains("a") || !s.contains("b") {
		t.Fatalf("expected a and b tracked, got len %d", s.len())
	}
	if s.missedBound != 0 {
		t.Fatalf("missedBound = %d before any eviction, want 0", s.missedBound)
	}
	// c beats the minimum (b=3): b is evicted and its count becomes the bound.
	s.update("c", 4)
	if s.contains("b") || !s.contains("c") {
		t.Fatal("expected b evicted by c")
	}
	if s.missedBound != 3 {
		t.Fatalf("missedBound = %d after evicting count 3, want 3", s.missedBound)
	}
	// d does not beat the minimum (c=4): refused, bound absorbs its count.
	s.update("d", 4)
	if s.contains("d") {
		t.Fatal("d should have been refused admission")
	}
	if s.missedBound != 4 {
		t.Fatalf("missedBound = %d after refusing count 4, want 4", s.missedBound)
	}
}

func TestTopKRemoveOnZero(t *testing.T) {
	s := newTopK[string](4)
	s.update("a", 2)
	s.update("b", 7)
	s.update("a", 0)
	if s.contains("a") || s.len() != 1 {
		t.Fatalf("a should be removed at count 0; len = %d", s.len())
	}
	// Removing an untracked key is a no-op.
	s.update("ghost", 0)
	if s.len() != 1 {
		t.Fatalf("len = %d after no-op removal, want 1", s.len())
	}
}

func TestTopKSeedOverflow(t *testing.T) {
	counts := map[string]int{"a": 10, "b": 8, "c": 6, "d": 4, "e": 2}
	s := seedTopK(3, tallies(counts))
	for _, key := range []string{"a", "b", "c"} {
		if !s.contains(key) {
			t.Errorf("seeded summary should track %q", key)
		}
	}
	// The tightest possible bound over this map is the largest count that
	// did not fit: d's 4.
	if s.missedBound != 4 {
		t.Errorf("missedBound = %d, want 4", s.missedBound)
	}
	checkInvariants(t, s, counts)

	// Under capacity: everything tracked, bound zero.
	small := seedTopK(8, tallies(counts))
	if small.len() != len(counts) || small.missedBound != 0 {
		t.Errorf("under-capacity seed: len %d bound %d, want %d and 0",
			small.len(), small.missedBound, len(counts))
	}
}

// tracked returns the keys a summary tracks, sorted.
func tracked(s *topkSummary[string]) []string {
	keys := make([]string, len(s.heap))
	for i, e := range s.heap {
		keys[i] = e.key
	}
	slices.Sort(keys)
	return keys
}

// TestTopKTiesFollowOneOrder pins the total order: among equal counts the
// smaller key ranks higher, for admission, eviction and seeding alike. Two
// summaries seeded from one map (whose iteration order differs run to run)
// and then fed the same updates track the same keys, with the same bound.
func TestTopKTiesFollowOneOrder(t *testing.T) {
	s := newTopK[string](2)
	s.update("b", 3)
	s.update("c", 3)
	s.update("a", 3) // ties with the minimum (c) and ranks above it: admitted
	if got := tracked(s); !slices.Equal(got, []string{"a", "b"}) || s.missedBound != 3 {
		t.Fatalf("after a tie: tracked %v bound %d, want [a b] and 3", got, s.missedBound)
	}
	s.update("d", 3) // ties with the minimum (b) and ranks below it: refused
	if got := tracked(s); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("a lower-ranked tie was admitted: %v", got)
	}

	rng := rand.New(rand.NewSource(3))
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		counts[fmt.Sprintf("k%02d", i)] = 1 + rng.Intn(3) // many ties across the cut
	}
	updates := make([][2]int, 400)
	for i := range updates {
		updates[i] = [2]int{rng.Intn(40), rng.Intn(5) - 1} // increments and decrements
	}
	var want []string
	for run := 0; run < 20; run++ {
		s := seedTopK(6, tallies(counts))
		exact := maps.Clone(counts)
		for _, u := range updates {
			key := fmt.Sprintf("k%02d", u[0])
			exact[key] = max(0, exact[key]+u[1])
			s.update(key, exact[key])
		}
		checkInvariants(t, s, exact)
		got := append(tracked(s), fmt.Sprint(s.missedBound))
		if run == 0 {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("run %d tracks %v, run 0 tracked %v", run, got, want)
		}
	}
}

// TestTopKRandomized drives random increments, decrements and removals
// against an exact mirror map and checks the structural invariants and the
// miss-bound contract after every step.
func TestTopKRandomized(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := newTopK[string](8)
			exact := make(map[string]int)
			keys := make([]string, 24)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%02d", i)
			}
			for step := 0; step < 2000; step++ {
				key := keys[rng.Intn(len(keys))]
				switch rng.Intn(5) {
				case 0: // retract one occurrence
					if exact[key] > 0 {
						exact[key]--
						if exact[key] == 0 {
							delete(exact, key)
						}
					}
				case 1: // drop the key outright (delete of its last record)
					delete(exact, key)
				default:
					exact[key]++
				}
				s.update(key, exact[key])
			}
			checkInvariants(t, s, exact)
		})
	}
}

// TestPruneOwnerAfterVisibilityFlip is the regression test for owner-bucket
// leaks: a user whose only record flips to public (or is deleted) must not
// leave behind an owner bucket holding retired heap entries or watermark
// state.
func TestPruneOwnerAfterVisibilityFlip(t *testing.T) {
	admin := storage.Principal{Admin: true}
	store := storage.NewStore()
	tr := Attach(store)

	rec, err := storage.NewRecordFromSQL("SELECT temp FROM WaterTemp WHERE temp < 5")
	if err != nil {
		t.Fatal(err)
	}
	rec.User = "dave"
	rec.Visibility = storage.VisibilityPrivate
	if _, err := store.Put(rec); err != nil {
		t.Fatal(err)
	}

	ownerBuckets := func() int {
		tr.mu.RLock()
		defer tr.mu.RUnlock()
		return len(tr.owners)
	}
	if ownerBuckets() != 1 {
		t.Fatalf("owner buckets = %d after private put, want 1", ownerBuckets())
	}
	if err := store.SetVisibility(rec.ID, admin, storage.VisibilityPublic); err != nil {
		t.Fatal(err)
	}
	if ownerBuckets() != 0 {
		t.Fatalf("owner buckets = %d after flip to public, want 0 (bucket leaked)", ownerBuckets())
	}
	// Flip back: the bucket is recreated with the record's contributions.
	if err := store.SetVisibility(rec.ID, admin, storage.VisibilityGroup); err != nil {
		t.Fatal(err)
	}
	if ownerBuckets() != 1 {
		t.Fatalf("owner buckets = %d after flip back, want 1", ownerBuckets())
	}
	if got := tr.QueryCount(storage.Principal{User: "dave"}); got != 1 {
		t.Fatalf("dave sees %d queries, want 1", got)
	}
	// Deleting the last record prunes the bucket too.
	if err := store.Delete(rec.ID, admin); err != nil {
		t.Fatal(err)
	}
	if ownerBuckets() != 0 {
		t.Fatalf("owner buckets = %d after delete, want 0", ownerBuckets())
	}
}
