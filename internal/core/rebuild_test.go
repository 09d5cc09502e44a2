package core

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// rebuilds reads how often each derived-state subscriber rebuilt from the
// records: cqms_store_subscriber_rebuild_seconds' observation counts.
func rebuilds(c *CQMS) map[string]uint64 {
	vec := c.Metrics().HistogramVec("cqms_store_subscriber_rebuild_seconds", "", nil, "subscriber")
	out := map[string]uint64{}
	for _, name := range []string{"stats", "miner-feed", "sessions"} {
		out[name] = vec.With(name).Count()
	}
	return out
}

// TestRecoveryRebuildsFromTheSnapshot proves the durable-derived-state path:
// a compaction writes the records and nothing else, a restart rebuilds the
// stats, the miner feed and the live sessions from the restored records —
// each once, after its rebuild on attach — and the WAL tail replays on top.
// Sessions are named from their records, so the rebuilt detector lists them
// under the IDs the primary served.
func TestRecoveryRebuildsFromTheSnapshot(t *testing.T) {
	dir := t.TempDir()
	c := openDurable(t, dir)
	base := time.Date(2026, 7, 1, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 6; i++ {
		at := base.Add(time.Duration(i) * time.Minute)
		if i >= 3 {
			at = at.Add(7 * time.Minute) // a pause that similarity bridges
		}
		submit(t, c, "alice", "limnology",
			"SELECT WaterTemp.lake, WaterTemp.temp FROM WaterTemp WHERE WaterTemp.temp < 15", at)
	}
	// Two late arrivals, so alice's sessions are not in ID order: one three
	// hours before everything (a session of its own, with the newest ID in
	// front), and an unrelated query in the pause, which cuts her six-query
	// session in two (the later part named by its own lowest query).
	submit(t, c, "alice", "limnology", "SELECT CityLocations.city FROM CityLocations", base.Add(-3*time.Hour))
	submit(t, c, "alice", "limnology", "SELECT WaterSalinity.lake FROM WaterSalinity", base.Add(450*time.Second))
	// Snapshot, then keep writing so recovery replays a tail into the
	// restored state — the tail, too, edits the middle of a stream.
	if _, _, _, err := c.Durability().Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if info, err := c.Durability().Info(); err != nil || len(info.Snapshots) != 1 || info.Snapshots[0].Frames != 3 {
		t.Fatalf("log info %+v, %v: want one snapshot of a header, a shape chunk and a record chunk", info, err)
	}
	submit(t, c, "bob", "limnology",
		"SELECT WaterSalinity.lake FROM WaterSalinity", base.Add(2*time.Hour))
	submit(t, c, "alice", "limnology", "SELECT CityLocations.city FROM CityLocations", base.Add(-90*time.Minute))
	statsBefore := c.StatsTracker().TableCounts(admin)
	sessionsBefore, err := c.Sessions(context.Background(), admin)
	if err != nil {
		t.Fatalf("Sessions: %v", err)
	}
	feedBefore := c.MinerFeed().NumTransactions()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2 := openDurable(t, dir)
	defer c2.Close()
	info := c2.Recovery()
	if info == nil {
		t.Fatal("no recovery info")
	}
	if info.Replayed == 0 {
		t.Fatal("expected a WAL tail replay after the snapshot")
	}
	if got, want := rebuilds(c2), map[string]uint64{"stats": 2, "miner-feed": 2, "sessions": 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("rebuilds = %v, want %v: one on attach, one from the snapshot's records", got, want)
	}
	if got := c2.StatsTracker().TableCounts(admin); !reflect.DeepEqual(got, statsBefore) {
		t.Errorf("stats diverged across recovery\n got: %+v\nwant: %+v", got, statsBefore)
	}
	if got := c2.MinerFeed().NumTransactions(); got != feedBefore {
		t.Errorf("feed transactions = %d, want %d", got, feedBefore)
	}
	sessionsAfter, err := c2.Sessions(context.Background(), admin)
	if err != nil {
		t.Fatalf("Sessions after recovery: %v", err)
	}
	if !reflect.DeepEqual(sessionsAfter, sessionsBefore) {
		t.Errorf("sessions diverged across recovery\n got: %+v\nwant: %+v",
			sessionsAfter, sessionsBefore)
	}
	// Each session is named by its lowest query: 1 (queries 1-3), 4 (4-6 and
	// the pause's 8), the early late arrival 7, bob's 9 and the tail's 10.
	var ids []int64
	for _, s := range sessionsAfter {
		ids = append(ids, s.ID)
	}
	if !reflect.DeepEqual(ids, []int64{1, 4, 7, 9, 10}) || !sessionsAfter[2].Start.Before(sessionsAfter[0].Start) {
		t.Errorf("the history should leave sessions 1, 4, 7, 9 and 10, with 7 chronologically first: %+v", sessionsAfter)
	}
}

// TestRecoveryAfterMiningRebuildsFeed proves a restart after RunMiner and a
// compaction rebuilds the feed from the snapshot's records and serves the
// rules the pass mined, before and after its own first pass.
func TestRecoveryAfterMiningRebuildsFeed(t *testing.T) {
	dir := t.TempDir()
	c := openDurable(t, dir)
	base := time.Date(2026, 7, 1, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 6; i++ {
		submit(t, c, "alice", "limnology",
			"SELECT WaterTemp.lake, WaterSalinity.salinity FROM WaterTemp, WaterSalinity WHERE WaterTemp.lake = WaterSalinity.lake",
			base.Add(time.Duration(i)*time.Minute))
		submit(t, c, "bob", "limnology", "SELECT city FROM CityLocations WHERE pop > 100000",
			base.Add(time.Duration(i)*time.Minute))
	}
	res := c.RunMiner()
	if len(res.Rules) == 0 {
		t.Fatal("the mining pass derived no rules")
	}
	if _, _, _, err := c.Durability().Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2 := openDurable(t, dir)
	defer c2.Close()
	if got := rebuilds(c2)["miner-feed"]; got != 2 {
		t.Errorf("the feed rebuilt %d times, want on attach and from the snapshot", got)
	}
	if got := c2.MinerFeed().NumTransactions(); got != c2.Store().Count() {
		t.Errorf("rebuilt feed counts %d transactions, want %d", got, c2.Store().Count())
	}
	if got := c2.MinerFeed().Rules(); !reflect.DeepEqual(got, res.Rules) {
		t.Errorf("rebuilt feed serves other rules than the pass\n got: %+v\nwant: %+v", got, res.Rules)
	}
	if got := c2.RunMiner().Rules; !reflect.DeepEqual(got, res.Rules) {
		t.Errorf("the restarted pass mined other rules\n got: %+v\nwant: %+v", got, res.Rules)
	}
}
