package miner

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/wire"
)

// feedTransactions pushes a mix of feature transactions through a feed.
func feedTransactions(f *Feed, n int) {
	txs := [][]string{
		{"attr:temp", "pred:temp<15", "table:WaterTemp"},
		{"join:loc_x", "table:WaterSalinity", "table:WaterTemp"},
		{"attr:city", "table:CityLocations"},
	}
	for i := 0; i < n; i++ {
		f.Add(txs[i%len(txs)])
	}
}

// feedState returns the feed's multiset as set key -> count, for comparing
// two feeds.
func feedState(f *Feed) map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int, len(f.sets))
	for k, s := range f.sets {
		out[k] = s.n
	}
	return out
}

// TestFeedCheckpointRoundTrip proves a restored feed holds exactly the
// original's multiset, derives exactly its rules, and keeps counting.
func TestFeedCheckpointRoundTrip(t *testing.T) {
	for _, n := range []int{0, 5, 50} {
		f := NewFeed(DefaultAssocConfig())
		feedTransactions(f, n)

		version, data, err := f.Checkpoint()
		if err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		g := NewFeed(DefaultAssocConfig())
		g.Add([]string{"table:Stale"}) // replaced by the restore
		if err := g.Restore(version, data); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if got, want := feedState(g), feedState(f); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: multiset %v, want %v", n, got, want)
		}
		if got, want := g.NumTransactions(), f.NumTransactions(); got != want {
			t.Errorf("n=%d: NumTransactions = %d, want %d", n, got, want)
		}
		if got, want := g.Rules(), f.Rules(); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: rules diverge\n got: %+v\nwant: %+v", n, got, want)
		}
		g.Add([]string{"attr:temp", "table:WaterTemp"})
		if got := g.NumTransactions(); got != f.NumTransactions()+1 {
			t.Errorf("n=%d: post-restore count = %d", n, got)
		}
	}
}

// TestFeedCheckpointsAfterRefresh verifies the feed checkpoints at any time,
// a mining pass's Refresh included: the rules a restart serves come from the
// restored multiset.
func TestFeedCheckpointsAfterRefresh(t *testing.T) {
	f := NewFeed(DefaultAssocConfig())
	feedTransactions(f, 30)
	rules := f.Refresh().Rules
	feedTransactions(f, 5)
	version, data, err := f.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint after Refresh: %v", err)
	}
	g := NewFeed(DefaultAssocConfig())
	if err := g.Restore(version, data); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := g.Rules(); len(got) == 0 || !reflect.DeepEqual(got, f.Refresh().Rules) {
		t.Errorf("restored rules %+v, want the original's after the same transactions", got)
	}
	if len(rules) == 0 {
		t.Error("Refresh derived no rules")
	}
}

// appendSet appends one hand-encoded set to a version-3 section.
func appendSet(dst []byte, n uint64, items ...string) []byte {
	dst = binary.AppendUvarint(dst, n)
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	for _, item := range items {
		dst = wire.AppendString(dst, item)
	}
	return dst
}

// brokenFeedSections returns a good two-set section and one corruption per
// rule Restore enforces; they are also the committed seed corpus of
// FuzzFeedRestore (testdata/fuzz/FuzzFeedRestore, one file a name).
func brokenFeedSections() (good []byte, broken map[string][]byte) {
	two := func(first []byte) []byte {
		return appendSet(append([]byte{2}, first...), 1, "table:b")
	}
	good = two(appendSet(nil, 3, "attr:x", "table:a"))
	return good, map[string][]byte{
		"set-counted-zero-times":       two(appendSet(nil, 0, "attr:x", "table:a")),
		"count-overflows-int":          two(appendSet(nil, 1<<63, "attr:x", "table:a")),
		"empty-set":                    two(appendSet(nil, 3)),
		"items-out-of-order":           two(appendSet(nil, 3, "table:a", "attr:x")),
		"item-listed-twice":            two(appendSet(nil, 3, "table:a", "table:a")),
		"set-listed-twice":             two(appendSet(nil, 3, "table:b")),
		"trailing-byte":                append(two(appendSet(nil, 3, "attr:x", "table:a")), 0),
		"truncated":                    good[:len(good)-3],
		"set-count-beyond-the-payload": {0xff, 0xff, 0x03},
	}
}

// TestFeedRestoreRejectsUnknownVersion pins the fallback contract: a
// version-2 section (an incremental miner's counters) and an unknown version
// are refused, so the bus rebuilds.
func TestFeedRestoreRejectsUnknownVersion(t *testing.T) {
	good, _ := brokenFeedSections()
	f := NewFeed(DefaultAssocConfig())
	for _, version := range []int{2, FeedCheckpointVersion + 1} {
		if err := f.Restore(version, good); err == nil {
			t.Errorf("version %d: accepted", version)
		}
	}
}

// TestFeedRestoreRefusesCorruptSections corrupts a good section one rule at
// a time; each must be refused and leave the feed as it was.
func TestFeedRestoreRefusesCorruptSections(t *testing.T) {
	good, broken := brokenFeedSections()
	f := NewFeed(DefaultAssocConfig())
	if err := f.Restore(FeedCheckpointVersion, good); err != nil {
		t.Fatalf("the good section was refused: %v", err)
	}
	if got := f.NumTransactions(); got != 4 {
		t.Fatalf("good section: %d transactions, want 4", got)
	}
	for name, data := range broken {
		if err := f.Restore(FeedCheckpointVersion, data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if got := f.NumTransactions(); got != 4 {
		t.Errorf("a refused section changed the feed: %d transactions", got)
	}
}

// FuzzFeedRestore feeds the decoder arbitrary bytes — the section arrives
// over the replication stream — and requires that it never panics and that
// whatever it accepts round-trips: decode, encode, decode gives the same
// multiset.
func FuzzFeedRestore(f *testing.F) {
	good, _ := brokenFeedSections()
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewFeed(DefaultAssocConfig())
		if err := a.Restore(FeedCheckpointVersion, data); err != nil {
			return
		}
		version, again, err := a.Checkpoint()
		if err != nil {
			t.Fatalf("Checkpoint of an accepted section: %v", err)
		}
		b := NewFeed(DefaultAssocConfig())
		if err := b.Restore(version, again); err != nil {
			t.Fatalf("re-encoding of %x refused: %v", data, err)
		}
		if got, want := feedState(b), feedState(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip of %x: %v, want %v", data, got, want)
		}
		if got, want := b.NumTransactions(), a.NumTransactions(); got != want {
			t.Fatalf("round trip of %x: %d transactions, want %d", data, got, want)
		}
	})
}

// TestFeedV2SectionTakesTheRebuildPath restores a store whose snapshot
// carries a version-2 feed section (the incremental miner's counters): the
// bus refuses it and rebuilds the feed from the restored records.
func TestFeedV2SectionTakesTheRebuildPath(t *testing.T) {
	store1 := storage.NewStore()
	for i := 0; i < 5; i++ {
		mustPut(t, store1, feedRecord(t, joinSQL))
	}
	// numTx 5 | frozen | one count "table:WaterTemp" 5 | no vocabulary | no warm-up.
	v2 := binary.AppendVarint(nil, 5)
	v2 = wire.AppendBool(v2, true)
	v2 = binary.AppendUvarint(v2, 1)
	v2 = wire.AppendString(v2, "table:WaterTemp")
	v2 = binary.AppendVarint(v2, 5)
	v2 = append(v2, 0, 0)
	section := storage.SubscriberCheckpoint{Name: "miner-feed", Version: 2, Data: v2}

	store2 := storage.NewStore()
	feed := NewFeed(DefaultAssocConfig())
	feed.Attach(store2)
	restored, rebuilt := store2.RestoreStateWithCheckpoints(store1.State(), []storage.SubscriberCheckpoint{section})
	if len(restored) != 0 || !reflect.DeepEqual(rebuilt, []string{"miner-feed"}) {
		t.Fatalf("restored %v, rebuilt %v; want the feed rebuilt", restored, rebuilt)
	}
	if got, want := feed.Rules(), MineAssociationRules(adminTransactions(store2), DefaultAssocConfig()); len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("rebuilt rules differ from a full pass\n got: %+v\nwant: %+v", got, want)
	}
}
