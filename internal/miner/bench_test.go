package miner

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/workload"
)

// exploreMixTransactions is the size of the explore_mix benchmark's logged
// feature transactions at the end of a run (a 2,000-query preload plus the
// run's submissions).
const exploreMixTransactions = 7730

var (
	exploreMixOnce sync.Once
	exploreMixTx   [][]string
)

// exploreMixFeatures returns the feature sets of an explore_mix-shaped log:
// the workload's exploratory query source drawn for users picked by the same
// skewed (Zipf) distribution over 5,000 users and the same seeds the
// benchmark's seed-1 preload uses.
func exploreMixFeatures(tb testing.TB) [][]string {
	exploreMixOnce.Do(func() {
		const seed, users = 1, 5000
		pick := rand.NewZipf(rand.New(rand.NewSource(seed*1000003+1)), 1.2, 8, users-1)
		src := workload.NewQuerySource(seed*1000003 + 3)
		for len(exploreMixTx) < exploreMixTransactions {
			text := src.Query(workload.GroupOf(int(pick.Uint64()), users))
			rec, err := storage.NewRecordFromSQL(text)
			if err != nil {
				continue
			}
			if len(rec.Features) > 0 {
				exploreMixTx = append(exploreMixTx, rec.Features)
			}
		}
	})
	if len(exploreMixTx) == 0 {
		tb.Fatal("no explore_mix transactions")
	}
	return exploreMixTx
}

// BenchmarkFeedRefresh measures what a mining pass pays for its rules: one
// derivation from the feed's distinct feature sets of an explore_mix-shaped
// log. The sets and rules metrics are the fixture's shape.
func BenchmarkFeedRefresh(b *testing.B) {
	feed := NewFeed(DefaultAssocConfig())
	for _, tx := range exploreMixFeatures(b) {
		feed.Add(tx)
	}
	var rules []Rule
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rules = feed.Refresh().Rules
	}
	b.StopTimer()
	if len(rules) == 0 {
		b.Fatal("no rules")
	}
	b.ReportMetric(float64(feed.NumSets()), "sets")
	b.ReportMetric(float64(len(rules)), "rules")
}

// BenchmarkFeedAdd measures the commit-path cost of the feed: counting one
// more record of a feature set already in the log.
func BenchmarkFeedAdd(b *testing.B) {
	feed := NewFeed(DefaultAssocConfig())
	txs := exploreMixFeatures(b)
	for _, tx := range txs {
		feed.Add(tx)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed.Add(txs[i%len(txs)])
	}
}

// TestFeedMatchesFullPassOnExploreMix holds the feed to the full Apriori
// pass on the explore_mix-shaped log, at a quarter of it and at all of it.
func TestFeedMatchesFullPassOnExploreMix(t *testing.T) {
	if testing.Short() {
		t.Skip("parses 7,730 queries")
	}
	txs := exploreMixFeatures(t)
	feed := NewFeed(DefaultAssocConfig())
	for i, tx := range txs {
		feed.Add(tx)
		if n := i + 1; n == len(txs)/4 || n == len(txs) {
			got, want := feed.Refresh().Rules, MineAssociationRules(txs[:n], DefaultAssocConfig())
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("%d transactions: %d feed rules differ from %d full-pass rules", n, len(got), len(want))
			}
		}
	}
}
