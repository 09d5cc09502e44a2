package client

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The client is the production ReplicationSource implementation.
var _ core.ReplicationSource = (*Client)(nil)

// newFollower builds a read replica over its own freshly populated engine,
// replicating from the primary behind primaryURL, and serves it over HTTP.
func newFollower(t *testing.T, primaryURL string) (*core.CQMS, *httptest.Server, context.CancelFunc) {
	t.Helper()
	eng := engine.New()
	if err := workload.Populate(eng, 200, 1); err != nil {
		t.Fatalf("Populate: %v", err)
	}
	src := New(primaryURL, WithAdmin())
	cqms, err := core.OpenFollower(eng, core.DefaultConfig(), src)
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := cqms.StartFollower(ctx); err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	ts := httptest.NewServer(server.New(cqms).Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(cancel)
	return cqms, ts, cancel
}

// waitCaughtUp blocks until the follower has applied everything the primary
// has appended (lag 0 against the primary's actual last sequence).
func waitCaughtUp(t *testing.T, follower *core.CQMS, primary *core.CQMS) {
	t.Helper()
	target := primary.Durability().LastSeq()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st := follower.ReplicationStatus()
		if st.AppliedSeq >= target && st.LastError == "" {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower never caught up to seq %d: %+v", target, follower.ReplicationStatus())
}

// statsForDiff fetches the admin stats document with the per-process status
// fields (role, uptime) zeroed, so primary and follower can be compared
// byte for byte.
func statsForDiff(t *testing.T, url string) []byte {
	t.Helper()
	stats, err := New(url, WithAdmin()).Stats(ctx)
	if err != nil {
		t.Fatalf("Stats(%s): %v", url, err)
	}
	stats.Status = server.StatusDocDTO{}
	b, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFollowerEquivalenceUnderRandomHistory is the replication equivalence
// test: a primary applies an arbitrary interleaving of every mutation class
// the API can produce (submits, batches, deletes, visibility flips,
// annotations, mining-driven session assignment, maintenance-driven repairs
// and stats refreshes) while a follower streams the log; at quiesce the
// follower's store state, stats counters and live sessions must be
// byte-identical to the primary's. Halfway through, the follower is restarted
// after a primary compaction, so the second half also exercises
// snapshot bootstrap plus cursor resume.
func TestFollowerEquivalenceUnderRandomHistory(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Durability = wal.DefaultConfig(t.TempDir())
	cfg.Durability.SyncPolicy = "off"
	cfg.Durability.SegmentBytes = 4 << 10
	tsPrimary, primary := newServer(t, cfg)

	follower, tsFollower, cancel := newFollower(t, tsPrimary.URL)

	rng := rand.New(rand.NewSource(7))
	trace := workload.Generate(workload.Config{
		Seed: 7, Users: 4, SessionsPerUser: 2,
		MinQueriesPerSession: 3, MaxQueriesPerSession: 6,
		MinThinkTime: time.Millisecond, MaxThinkTime: time.Millisecond,
		SessionGap: time.Hour, Start: time.Unix(1700000000, 0),
	})
	clients := map[string]*Client{}
	for _, u := range trace.Users {
		clients[u] = New(tsPrimary.URL, WithUser(u, "limnology"))
	}
	admin := New(tsPrimary.URL, WithAdmin())

	var ids []int64
	visibilities := []string{"private", "group", "public"}
	mutate := func(step int) {
		q := trace.Queries[step%len(trace.Queries)]
		c := clients[q.User]
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // single submit
			resp, err := c.Submit(ctx, q.SQL, Group(q.Group), Visibility(visibilities[rng.Intn(3)]))
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			ids = append(ids, resp.QueryID)
		case 4: // batch submit
			batch := []server.SubmitParams{}
			for j := 0; j < 3; j++ {
				bq := trace.Queries[(step+j)%len(trace.Queries)]
				batch = append(batch, server.SubmitParams{SQL: bq.SQL, Group: q.Group, Visibility: "group"})
			}
			resp, err := c.SubmitBatch(ctx, batch)
			if err != nil {
				t.Fatalf("SubmitBatch: %v", err)
			}
			for _, item := range resp.Results {
				if item.Result != nil {
					ids = append(ids, item.Result.QueryID)
				}
			}
		case 5: // annotate an existing query (owner-only; use admin)
			if len(ids) > 0 {
				_ = admin.Annotate(ctx, ids[rng.Intn(len(ids))], "replicated annotation")
			}
		case 6: // visibility flip
			if len(ids) > 0 {
				_ = admin.SetVisibility(ctx, ids[rng.Intn(len(ids))], visibilities[rng.Intn(3)])
			}
		case 7: // delete
			if len(ids) > 1 {
				i := rng.Intn(len(ids))
				_ = admin.DeleteQuery(ctx, ids[i])
				ids = append(ids[:i], ids[i+1:]...)
			}
		case 8: // mining persists session assignments through the log
			if _, err := admin.Mine(ctx); err != nil {
				t.Fatalf("Mine: %v", err)
			}
		case 9: // maintenance: invalidations, repairs, stats refreshes
			if _, err := admin.Maintain(ctx); err != nil {
				t.Fatalf("Maintain: %v", err)
			}
		}
	}

	const steps = 120
	for step := 0; step < steps/2; step++ {
		mutate(step)
	}

	// Mid-stream restart: compact the primary (snapshot + segment pruning)
	// and replace the follower with a fresh one, which must bootstrap from
	// the snapshot and resume the tail at its covered sequence.
	waitCaughtUp(t, follower, primary)
	if _, err := admin.LogCompact(ctx); err != nil {
		t.Fatalf("LogCompact: %v", err)
	}
	cancel()
	follower2, tsFollower2, _ := newFollower(t, tsPrimary.URL)
	follower, tsFollower = follower2, tsFollower2

	for step := steps / 2; step < steps; step++ {
		mutate(step)
	}

	waitCaughtUp(t, follower, primary)
	st := follower.ReplicationStatus()
	if st.SnapshotSeq == 0 {
		t.Fatalf("restarted follower did not bootstrap from a snapshot: %+v", st)
	}
	if st.LagRecords != 0 {
		t.Fatalf("lag at quiesce = %d records", st.LagRecords)
	}

	// Store state byte-identical.
	primaryState, err := json.Marshal(primary.Store().State())
	if err != nil {
		t.Fatal(err)
	}
	followerState, err := json.Marshal(follower.Store().State())
	if err != nil {
		t.Fatal(err)
	}
	if string(primaryState) != string(followerState) {
		t.Errorf("store state diverged: primary %d bytes, follower %d bytes",
			len(primaryState), len(followerState))
	}

	// Stats counters and listings byte-identical (modulo role/uptime).
	if p, f := statsForDiff(t, tsPrimary.URL), statsForDiff(t, tsFollower.URL); string(p) != string(f) {
		t.Errorf("stats diverged:\nprimary:  %s\nfollower: %s", p, f)
	}

	// Live sessions identical.
	if p, f := primary.SessionCount(), follower.SessionCount(); p != f {
		t.Errorf("session count diverged: primary %d, follower %d", p, f)
	}
	pSessions, err := New(tsPrimary.URL, WithAdmin()).Sessions(ctx).All()
	if err != nil {
		t.Fatal(err)
	}
	fSessions, err := New(tsFollower.URL, WithAdmin()).Sessions(ctx).All()
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := json.Marshal(pSessions)
	fb, _ := json.Marshal(fSessions)
	if string(pb) != string(fb) {
		t.Errorf("session listings diverged:\nprimary:  %s\nfollower: %s", pb, fb)
	}
	// Same IDs, and behind each ID the same graph: each side labels its own
	// edges when the graph is read.
	for _, s := range pSessions {
		pg, err := New(tsPrimary.URL, WithAdmin()).SessionGraph(ctx, s.ID)
		if err != nil {
			t.Fatal(err)
		}
		fg, err := New(tsFollower.URL, WithAdmin()).SessionGraph(ctx, s.ID)
		if err != nil || pg != fg {
			t.Errorf("graph of session %d diverged (follower error %v):\nprimary:  %s\nfollower: %s", s.ID, err, pg, fg)
		}
	}
}
