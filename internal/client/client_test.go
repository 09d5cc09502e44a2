package client

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/workload"
)

var ctx = context.Background()

// newServer spins up a CQMS HTTP server over a small populated database and
// returns the test server plus the CQMS for extra assertions.
func newServer(t *testing.T, cfg core.Config) (*httptest.Server, *core.CQMS) {
	t.Helper()
	eng := engine.New()
	if err := workload.Populate(eng, 200, 1); err != nil {
		t.Fatalf("Populate: %v", err)
	}
	cqms, err := core.OpenWithEngine(eng, cfg)
	if err != nil {
		t.Fatalf("OpenWithEngine: %v", err)
	}
	ts := httptest.NewServer(server.New(cqms).Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := cqms.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return ts, cqms
}

func TestClientSubmitSearchAnnotateRoundTrip(t *testing.T) {
	ts, _ := newServer(t, core.DefaultConfig())
	alice := New(ts.URL, WithUser("alice", "limnology"))

	resp, err := alice.Submit(ctx, "SELECT WaterTemp.lake, WaterTemp.temp FROM WaterTemp WHERE WaterTemp.temp < 15",
		Group("limnology"), Visibility("group"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.QueryID == 0 {
		t.Fatal("Submit assigned no query ID")
	}
	if resp.ExecError != "" {
		t.Fatalf("Submit execution error: %s", resp.ExecError)
	}
	if len(resp.Columns) == 0 {
		t.Fatal("Submit returned no columns")
	}

	if err := alice.Annotate(ctx, resp.QueryID, "cold lakes only"); err != nil {
		t.Fatalf("Annotate: %v", err)
	}

	matches, err := alice.SearchKeyword(ctx, "watertemp").All()
	if err != nil {
		t.Fatalf("SearchKeyword: %v", err)
	}
	if len(matches) != 1 {
		t.Fatalf("keyword search found %d matches, want 1", len(matches))
	}
	got := matches[0].Query
	if got.ID != resp.QueryID || got.User != "alice" {
		t.Fatalf("match = %+v", got)
	}
	if len(got.Annotations) != 1 || got.Annotations[0] != "cold lakes only" {
		t.Fatalf("annotations on match = %v", got.Annotations)
	}

	history, err := alice.History(ctx, "").All()
	if err != nil {
		t.Fatalf("History: %v", err)
	}
	if len(history) != 1 || history[0].Query.ID != resp.QueryID {
		t.Fatalf("history = %+v", history)
	}

	// GetQuery fetches the same record by ID.
	q, err := alice.GetQuery(ctx, resp.QueryID)
	if err != nil {
		t.Fatalf("GetQuery: %v", err)
	}
	if q.ID != resp.QueryID || q.User != "alice" {
		t.Fatalf("GetQuery = %+v", q)
	}
}

func TestClientVisibilityEnforcedAcrossUsers(t *testing.T) {
	ts, _ := newServer(t, core.DefaultConfig())
	alice := New(ts.URL, WithUser("alice", "limnology"))
	mallory := New(ts.URL, WithUser("mallory"))

	resp, err := alice.Submit(ctx, "SELECT WaterSalinity.lake FROM WaterSalinity",
		Group("limnology"), Visibility("private"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// A stranger cannot see or annotate the private query.
	if matches, err := mallory.SearchKeyword(ctx, "watersalinity").All(); err != nil || len(matches) != 0 {
		t.Fatalf("stranger saw %d private matches (err %v)", len(matches), err)
	}
	if err := mallory.Annotate(ctx, resp.QueryID, "sneaky"); err == nil {
		t.Fatal("stranger annotated a private query")
	}
	if err := mallory.SetVisibility(ctx, resp.QueryID, "public"); err == nil {
		t.Fatal("stranger changed visibility of a private query")
	}
	// The stranger's failures carry machine-readable codes.
	if cerr, ok := asClientError(mallory.SetVisibility(ctx, resp.QueryID, "public")); ok {
		if cerr.Code() != server.CodePermissionDenied {
			t.Fatalf("stranger visibility change code = %s, want %s", cerr.Code(), server.CodePermissionDenied)
		}
	} else {
		t.Fatal("expected a *client.Error from the denied visibility change")
	}
	// The owner publishes it; now everyone finds it.
	if err := alice.SetVisibility(ctx, resp.QueryID, "public"); err != nil {
		t.Fatalf("owner SetVisibility: %v", err)
	}
	if matches, err := mallory.SearchKeyword(ctx, "watersalinity").All(); err != nil || len(matches) != 1 {
		t.Fatalf("stranger found %d public matches (err %v)", len(matches), err)
	}

	stats, err := alice.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.Queries != 1 {
		t.Fatalf("stats.Queries = %d, want 1", stats.Queries)
	}
}

// asClientError unwraps a *client.Error for code assertions.
func asClientError(e error) (*Error, bool) {
	cerr, ok := e.(*Error)
	return cerr, ok
}

func TestClientBatchSubmit(t *testing.T) {
	ts, cqms := newServer(t, core.DefaultConfig())
	alice := New(ts.URL, WithUser("alice", "limnology"))

	resp, err := alice.SubmitBatch(ctx, []server.SubmitParams{
		{SQL: "SELECT lake FROM WaterTemp", Visibility: "group"},
		{SQL: "SELEKT broken"},
		{SQL: "SELECT salinity FROM WaterSalinity", Visibility: "group"},
	})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("batch results = %d, want 3", len(resp.Results))
	}
	if resp.Results[0].Error != nil || resp.Results[0].Result == nil {
		t.Fatalf("first result = %+v", resp.Results[0])
	}
	if resp.Results[1].Error == nil || resp.Results[1].Error.Code != server.CodeInvalidArgument {
		t.Fatalf("parse failure result = %+v", resp.Results[1])
	}
	if resp.Results[2].Result == nil {
		t.Fatalf("third result = %+v", resp.Results[2])
	}
	// IDs are consecutive (single commit batch) and only parsed queries
	// are logged.
	if got := cqms.Store().Count(); got != 2 {
		t.Fatalf("store holds %d queries, want 2", got)
	}
	if resp.Results[2].Result.QueryID != resp.Results[0].Result.QueryID+1 {
		t.Fatalf("batch IDs not consecutive: %d then %d",
			resp.Results[0].Result.QueryID, resp.Results[2].Result.QueryID)
	}
}

func TestClientLogEndpoints(t *testing.T) {
	// In-memory server: log info reports durability disabled and backup fails.
	ts, _ := newServer(t, core.DefaultConfig())
	c := New(ts.URL, WithUser("admin"), WithAdmin())
	info, err := c.LogInfo(ctx)
	if err != nil {
		t.Fatalf("LogInfo: %v", err)
	}
	if info.Enabled {
		t.Fatal("in-memory server reported durability enabled")
	}
	if _, err := c.LogBackup(ctx); err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Fatalf("LogBackup on in-memory server: %v", err)
	}

	// Durable server: submit, then inspect / backup / compact the log.
	cfg := core.DefaultConfig()
	cfg.Durability.Dir = t.TempDir()
	cfg.Durability.SyncPolicy = "off"
	tsd, _ := newServer(t, cfg)
	cd := New(tsd.URL, WithUser("alice", "limnology"))
	if _, err := cd.Submit(ctx, "SELECT WaterTemp.lake FROM WaterTemp", Group("limnology")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	dinfo, err := cd.LogInfo(ctx)
	if err != nil {
		t.Fatalf("LogInfo: %v", err)
	}
	if !dinfo.Enabled || dinfo.LastSeq == 0 || len(dinfo.Segments) == 0 {
		t.Fatalf("durable log info = %+v", dinfo)
	}
	backup, err := cd.LogBackup(ctx)
	if err != nil {
		t.Fatalf("LogBackup: %v", err)
	}
	if backup.Seq != dinfo.LastSeq || backup.Path == "" {
		t.Fatalf("backup = %+v, want seq %d", backup, dinfo.LastSeq)
	}
	compacted, err := cd.LogCompact(ctx)
	if err != nil {
		t.Fatalf("LogCompact: %v", err)
	}
	if compacted.Seq < backup.Seq {
		t.Fatalf("compact seq %d went backwards from %d", compacted.Seq, backup.Seq)
	}
	after, err := cd.LogInfo(ctx)
	if err != nil {
		t.Fatalf("LogInfo after compact: %v", err)
	}
	if after.SnapshotSeq != compacted.Seq || after.AppendsSinceSnapshot != 0 {
		t.Fatalf("log info after compact = %+v", after)
	}
}

// TestDerivedStateAndSidecarSurface covers the provenance wire surface: the
// stats endpoint reports where each derived-state subsystem came from, and
// log info lists the snapshot's sidecar checkpoint sections after a backup.
func TestDerivedStateAndSidecarSurface(t *testing.T) {
	// In-memory server: everything is live-built.
	ts, _ := newServer(t, core.DefaultConfig())
	c := New(ts.URL, WithUser("admin"), WithAdmin())
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	sources := map[string]string{}
	for _, ds := range stats.Status.Provenance {
		sources[ds.Name] = ds.Source
	}
	for _, name := range []string{"stats", "miner-feed", "sessions"} {
		if sources[name] != "live" {
			t.Errorf("in-memory provenance[%s] = %q, want live", name, sources[name])
		}
	}
	if stats.Status.Role != "primary" {
		t.Errorf("stats status role = %q, want primary", stats.Status.Role)
	}

	// Durable server: a backup writes one sidecar section, the stats
	// subscriber's; sessions and the miner feed rebuild from the records.
	cfg := core.DefaultConfig()
	cfg.Durability.Dir = t.TempDir()
	cfg.Durability.SyncPolicy = "off"
	tsd, _ := newServer(t, cfg)
	cd := New(tsd.URL, WithUser("alice", "limnology"))
	if _, err := cd.Submit(ctx, "SELECT WaterTemp.lake FROM WaterTemp", Group("limnology")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := cd.LogBackup(ctx); err != nil {
		t.Fatalf("LogBackup: %v", err)
	}
	info, err := cd.LogInfo(ctx)
	if err != nil {
		t.Fatalf("LogInfo: %v", err)
	}
	if sc := info.SnapshotSidecars; len(sc) != 1 || sc[0].Name != "stats" || sc[0].Bytes <= 0 || sc[0].Version <= 0 {
		t.Errorf("snapshot sidecars %+v, want one stats section with a payload and a version", sc)
	}
}
