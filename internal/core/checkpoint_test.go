package core

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/wal"
)

// TestRecoveryRestoresFromCheckpoint proves the full durable-derived-state
// path: a compaction writes the stats subscriber's sidecar checkpoint, a
// restart restores the stats from it and rebuilds the miner feed and the live
// sessions from the restored records, the WAL tail replays on top, and the
// provenance surface reports it. Sessions are named from their records, so the
// rebuilt detector lists them under the IDs the primary served.
func TestRecoveryRestoresFromCheckpoint(t *testing.T) {
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
	rebuilt := append([]string(nil), info.CheckpointRebuilt...)
	sort.Strings(rebuilt)
	if !reflect.DeepEqual(info.CheckpointRestored, []string{"stats"}) || !reflect.DeepEqual(rebuilt, []string{"miner-feed", "sessions"}) {
		t.Fatalf("CheckpointRestored = %v, rebuilt = %v; want stats restored, the feed and sessions rebuilt",
			info.CheckpointRestored, info.CheckpointRebuilt)
	}
	if info.Replayed == 0 {
		t.Fatal("expected a WAL tail replay after the snapshot")
	}
	want := map[string]string{"stats": ProvenanceCheckpoint, "miner-feed": ProvenanceRebuilt, "sessions": ProvenanceRebuilt}
	if prov := c2.DerivedStateProvenance(); !reflect.DeepEqual(prov, want) {
		t.Errorf("provenance = %v, want %v", prov, want)
	}
	if got := c2.StatsTracker().TableCounts(admin); !reflect.DeepEqual(got, statsBefore) {
		t.Errorf("stats diverged across checkpointed recovery\n got: %+v\nwant: %+v", got, statsBefore)
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

// TestRecoveryAfterMiningRestoresFeedFromCheckpoint proves a restart after
// RunMiner and a compaction rebuilds the feed from the snapshot's records — the
// snapshot carries no feed section — and serves the rules the pass mined,
// before and after its own first pass.
func TestRecoveryAfterMiningRestoresFeedFromCheckpoint(t *testing.T) {
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
	if prov := c2.DerivedStateProvenance(); prov["miner-feed"] != ProvenanceRebuilt {
		t.Errorf("provenance[miner-feed] = %q, want %q", prov["miner-feed"], ProvenanceRebuilt)
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

// TestRecoveryFallsBackWithoutSidecars proves a snapshot written without
// derived-state sections (by a store with no subscribers) recovers, with every
// subscriber rebuilt from a full scan and the provenance saying so.
func TestRecoveryFallsBackWithoutSidecars(t *testing.T) {
	dir := t.TempDir()
	// Build the data directory with a bare store: no subscribers, so the
	// snapshot has no checkpoint sections.
	store := storage.NewStore()
	wcfg := wal.DefaultConfig(dir)
	wcfg.SyncPolicy = "off"
	mgr, _, err := wal.Open(store, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 7, 1, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 4; i++ {
		rec, err := storage.NewRecordFromSQL("SELECT WaterTemp.lake FROM WaterTemp")
		if err != nil {
			t.Fatal(err)
		}
		rec.User = "alice"
		rec.IssuedAt = base.Add(time.Duration(i) * time.Minute)
		if _, err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := mgr.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	c := openDurable(t, dir)
	defer c.Close()
	info := c.Recovery()
	if info == nil || len(info.CheckpointRestored) != 0 {
		t.Fatalf("recovery info = %+v, want no checkpoint restores", info)
	}
	rebuilt := append([]string(nil), info.CheckpointRebuilt...)
	sort.Strings(rebuilt)
	if want := []string{"miner-feed", "sessions", "stats"}; !reflect.DeepEqual(rebuilt, want) {
		t.Fatalf("CheckpointRebuilt = %v, want %v", info.CheckpointRebuilt, want)
	}
	prov := c.DerivedStateProvenance()
	for _, name := range []string{"stats", "miner-feed", "sessions"} {
		if prov[name] != ProvenanceRebuilt {
			t.Errorf("provenance[%s] = %q, want %q", name, prov[name], ProvenanceRebuilt)
		}
	}
	// The rebuilt state is correct: counters and sessions match the store.
	if got := c.StatsTracker().QueryCount(admin); got != 4 {
		t.Errorf("QueryCount = %d, want 4", got)
	}
	sessions, err := c.Sessions(context.Background(), admin)
	if err != nil || len(sessions) != 1 {
		t.Fatalf("Sessions = %v (err %v), want one session", sessions, err)
	}
}

// TestProvenanceLiveWhenInMemory pins the third provenance value: a system
// with no durable snapshot reports every subscriber as live-built.
func TestProvenanceLiveWhenInMemory(t *testing.T) {
	c, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for name, src := range c.DerivedStateProvenance() {
		if src != ProvenanceLive {
			t.Errorf("provenance[%s] = %q, want %q", name, src, ProvenanceLive)
		}
	}
}
