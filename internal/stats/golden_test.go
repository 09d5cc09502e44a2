package stats_test

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/storage"
)

// goldenCapacity is small enough that every dimension outgrows its summary in
// the golden history.
const goldenCapacity = 4

// goldenContext is the table context of the context reads the golden dumps.
var goldenContext = []string{"WaterTemp", "WaterSalinity", "CityLocations"}

// goldenTexts reference tables the other pools do not, so the table
// dimension outgrows the golden capacity too.
var goldenTexts = []string{
	"SELECT depth FROM Lakes WHERE depth > 20",
	"SELECT Sensors.id, Lakes.name FROM Sensors, Lakes WHERE Sensors.lake = Lakes.name",
	"SELECT station FROM Stations WHERE Stations.active = 1",
}

// goldenPrincipals are principalsOf plus three of the tied users, whose owner
// buckets hold the golden history's non-public records.
func goldenPrincipals() []storage.Principal {
	ps := principalsOf()
	for _, u := range tiedUsers[:3] {
		ps = append(ps, storage.Principal{User: u})
	}
	return ps
}

// dumpListings renders every listing, bound and context read of the tracker
// for each golden principal, one line per read.
func dumpListings(b *strings.Builder, label string, tr *stats.Tracker) {
	for _, p := range goldenPrincipals() {
		who := p.User
		if p.Admin {
			who = "admin"
		}
		fmt.Fprintf(b, "%s %s tables %v\n", label, who, tr.TableCounts(p))
		fmt.Fprintf(b, "%s %s users %v\n", label, who, tr.UserActivity(p))
		fmt.Fprintf(b, "%s %s predicates %v\n", label, who, tr.TopPredicates(p, 0))
		fmt.Fprintf(b, "%s %s maxfp %d\n", label, who, tr.MaxFingerprintCount(p))
		fmt.Fprintf(b, "%s %s bounds %+v\n", label, who, tr.Bounds(p))
		fmt.Fprintf(b, "%s %s columns %v\n", label, who, tr.ColumnCounts(p, goldenContext))
		fmt.Fprintf(b, "%s %s preds %v\n", label, who, tr.PredicateCounts(p, goldenContext))
		fmt.Fprintf(b, "%s %s joins %v\n", label, who, tr.JoinCounts(p, goldenContext))
	}
}

// goldenHistory runs one seed's history against a capacity-4 tracker and
// returns its dump: puts by tied users, visibility flips, deletes and text
// replacements, growing for two thirds of the steps and shrinking in the last, so
// the log-wide dimensions go past capacity and then back under it. It
// returns, too, whether the admin bucket's user dimension did.
func goldenHistory(t *testing.T, seed int64) (dump string, overflowed, shrank bool) {
	rng := rand.New(rand.NewSource(seed))
	store := storage.NewStore()
	live := stats.AttachWithCapacity(store, goldenCapacity)
	put := func() {
		var sql string
		switch rng.Intn(6) {
		case 0, 1:
			sql = genSQL(rng)
		case 2:
			sql = goldenTexts[rng.Intn(len(goldenTexts))]
		default:
			sql = repeatedTexts[rng.Intn(len(repeatedTexts))]
		}
		rec, err := storage.NewRecordFromSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		rec.User = tiedUsers[rng.Intn(8)]
		rec.Group = "limnology"
		rec.Visibility = storage.Visibility(rng.Intn(3))
		mustPut(t, store, rec)
	}
	var b strings.Builder
	const steps = 300
	for i := 1; i <= steps; i++ {
		ids := liveIDs(store)
		op := rng.Intn(10)
		if i > 2*steps/3 && op < 4 {
			op += 5 // the last third puts one time in ten and deletes three in five
		}
		switch {
		case len(ids) == 0 || op < 5:
			put()
		case op < 6:
			if err := store.SetVisibility(ids[rng.Intn(len(ids))], admin, storage.Visibility(rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		case op < 9:
			if err := store.Delete(ids[rng.Intn(len(ids))], admin); err != nil {
				t.Fatal(err)
			}
		default:
			upd, err := storage.NewRecordFromSQL(genSQL(rng))
			if err != nil {
				t.Fatal(err)
			}
			if err := store.ReplaceText(ids[rng.Intn(len(ids))], upd); err != nil {
				t.Fatal(err)
			}
		}
		n := len(stats.Counts(live).All.Users)
		overflowed = overflowed || n > goldenCapacity
		shrank = shrank || overflowed && n <= goldenCapacity
		if i%25 == 0 {
			dumpListings(&b, fmt.Sprintf("seed=%d step=%d", seed, i), live)
		}
	}
	rebuilt := stats.NewWithCapacity(goldenCapacity)
	rebuilt.Rebuild(store)
	dumpListings(&b, fmt.Sprintf("seed=%d rebuilt", seed), rebuilt)
	return b.String(), overflowed, shrank
}

// goldenListings is the dump of seeds 1-3.
func goldenListings(t *testing.T) string {
	var b strings.Builder
	for seed := int64(1); seed <= 3; seed++ {
		dump, overflowed, shrank := goldenHistory(t, seed)
		if !overflowed || !shrank {
			t.Fatalf("seed %d: the user dimension went past capacity %v, back under it %v; want both", seed, overflowed, shrank)
		}
		b.WriteString(dump)
	}
	return b.String()
}

// TestStatsListingsMatchParent holds every listing, bound and context read to
// what the parent commit (7430241) served over the same histories: its dump
// is testdata/parent_listings.golden, which is not regenerated.
func TestStatsListingsMatchParent(t *testing.T) {
	want, err := os.ReadFile("testdata/parent_listings.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := goldenListings(t)
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d:\n   now: %s\nparent: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("dump has %d lines, the parent's %d", len(gotLines), len(wantLines))
}
