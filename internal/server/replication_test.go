package server_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/workload"
)

// newDurableServer starts an httptest server over a durable CQMS with small
// segments, so a handful of submissions spans several WAL segments and
// compaction actually removes some.
func newDurableServer(t *testing.T) (*httptest.Server, *client.Client, *client.Client) {
	t.Helper()
	eng := engine.New()
	if err := workload.Populate(eng, 200, 1); err != nil {
		t.Fatalf("Populate: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.Durability = wal.DefaultConfig(t.TempDir())
	cfg.Durability.SyncPolicy = "off"
	cfg.Durability.SegmentBytes = 256
	cqms, err := core.OpenWithEngine(eng, cfg)
	if err != nil {
		t.Fatalf("OpenWithEngine: %v", err)
	}
	ts := httptest.NewServer(server.New(cqms).Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { cqms.Close() })
	alice := client.New(ts.URL, client.WithUser("alice", "limnology"))
	admin := client.New(ts.URL, client.WithAdmin())
	return ts, alice, admin
}

// TestReplicationStreamEndpoints drives the primary's replication surface
// through the client implementation of core.ReplicationSource: snapshot
// bootstrap, WAL tail, cursor resume and the compacted-cursor signal.
func TestReplicationStreamEndpoints(t *testing.T) {
	_, alice, admin := newDurableServer(t)
	for i := 0; i < 8; i++ {
		if _, err := alice.Submit(ctx, "SELECT lake FROM WaterTemp", client.Group("limnology")); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}

	// Before any snapshot: bootstrap reports "replay from 0".
	if _, _, ok, err := admin.FetchSnapshot(ctx); err != nil || ok {
		t.Fatalf("FetchSnapshot before backup = ok %v, err %v; want no snapshot", ok, err)
	}

	// The WAL tail streams every record and resumes from a cursor.
	var seqs []uint64
	primarySeq, n, err := admin.FetchWAL(ctx, 0, 0, func(seq uint64, payload []byte) error {
		if _, err := storage.DecodeMutation(payload); err != nil {
			return err
		}
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatalf("FetchWAL: %v", err)
	}
	if len(seqs) == 0 || n == 0 {
		t.Fatalf("FetchWAL streamed %d records, %d bytes", len(seqs), n)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, seq)
		}
	}
	if primarySeq != seqs[len(seqs)-1] {
		t.Fatalf("primarySeq = %d, want %d", primarySeq, seqs[len(seqs)-1])
	}
	// Cursor at the tip: an empty response, same primary sequence.
	if _, _, err := admin.FetchWAL(ctx, primarySeq, 0, func(uint64, []byte) error {
		t.Fatal("no records expected past the tip")
		return nil
	}); err != nil {
		t.Fatalf("FetchWAL at tip: %v", err)
	}

	// Snapshot + compaction: bootstrap works, stale cursors turn compacted.
	compacted, err := admin.LogCompact(ctx)
	if err != nil {
		t.Fatalf("LogCompact: %v", err)
	}
	if compacted.RemovedSegments == 0 {
		t.Fatal("compaction removed no segments; segment size too large for this test")
	}
	seq, state, ok, err := admin.FetchSnapshot(ctx)
	if err != nil || !ok {
		t.Fatalf("FetchSnapshot = ok %v, err %v", ok, err)
	}
	if seq != compacted.Seq {
		t.Fatalf("snapshot seq = %d, want %d", seq, compacted.Seq)
	}
	// The stream reader staged the whole store: every record the primary
	// held at the compaction.
	info, err := admin.LogInfo(ctx)
	if err != nil || len(info.Snapshots) != 1 {
		t.Fatalf("LogInfo = %+v, %v", info, err)
	}
	if len(state.Records) == 0 || len(state.Records) != info.Snapshots[0].Records {
		t.Fatalf("snapshot carries %d records, the file holds %d", len(state.Records), info.Snapshots[0].Records)
	}
	if info.PayloadFormat != storage.PayloadFormat || info.Snapshots[0].Frames < 2 {
		t.Fatalf("LogInfo reports payload format %d, snapshot %+v", info.PayloadFormat, info.Snapshots[0])
	}
	if _, _, err := admin.FetchWAL(ctx, 0, 0, func(uint64, []byte) error { return nil }); !errors.Is(err, wal.ErrCompacted) {
		t.Fatalf("FetchWAL(0) after compaction err = %v, want ErrCompacted", err)
	}
	// Resuming from the snapshot's covered sequence still works.
	if _, _, err := admin.FetchWAL(ctx, seq, 0, func(uint64, []byte) error { return nil }); err != nil {
		t.Fatalf("FetchWAL(%d): %v", seq, err)
	}
}

// TestReplicationWALLongPoll: a waiting tail fetch returns once a concurrent
// write lands, instead of waiting out the whole window.
func TestReplicationWALLongPoll(t *testing.T) {
	_, alice, admin := newDurableServer(t)
	if _, err := alice.Submit(ctx, "SELECT lake FROM WaterTemp"); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := admin.ReplicationStatus(ctx)
	if err != nil {
		t.Fatalf("ReplicationStatus: %v", err)
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		alice.Submit(context.Background(), "SELECT depth FROM WaterTemp")
	}()
	start := time.Now()
	var got int
	if _, _, err := admin.FetchWAL(ctx, st.AppliedSeq, 10*time.Second, func(uint64, []byte) error {
		got++
		return nil
	}); err != nil {
		t.Fatalf("FetchWAL: %v", err)
	}
	if got == 0 {
		t.Fatal("long-poll returned no records")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("long-poll waited %v; should return as soon as the write lands", waited)
	}
}

// TestReplicationAccessAndAvailability: the stream endpoints are admin-only
// and need a durable log; status is open on every server.
func TestReplicationAccessAndAvailability(t *testing.T) {
	_, alice, admin := newDurableServer(t)
	if _, _, _, err := alice.FetchSnapshot(ctx); errCode(err) != server.CodePermissionDenied {
		t.Fatalf("non-admin FetchSnapshot code = %v, want permission_denied", errCode(err))
	}
	if _, _, err := alice.FetchWAL(ctx, 0, 0, nil); errCode(err) != server.CodePermissionDenied {
		t.Fatalf("non-admin FetchWAL code = %v, want permission_denied", errCode(err))
	}
	st, err := alice.ReplicationStatus(ctx)
	if err != nil {
		t.Fatalf("non-admin ReplicationStatus: %v", err)
	}
	if st.Role != "primary" {
		t.Fatalf("role = %q, want primary", st.Role)
	}
	if st.AppliedSeq != st.PrimarySeq || st.LagRecords != 0 || st.LagSeconds != 0 {
		t.Fatalf("primary status = %+v; a primary is never behind itself", st)
	}
	stats, err := admin.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.Status.Role != st.Role || stats.Status.AppliedSeq != st.AppliedSeq {
		t.Fatalf("stats status %+v != replication status %+v", stats.Status, st.StatusDocDTO)
	}

	// In-memory server: the stream is unavailable, status still answers.
	tsMem, _, _, adminMem := newTestServer(t)
	_ = tsMem
	if _, _, _, err := adminMem.FetchSnapshot(ctx); errCode(err) != server.CodeUnavailable {
		t.Fatalf("in-memory FetchSnapshot code = %v, want unavailable", errCode(err))
	}
	if _, _, err := adminMem.FetchWAL(ctx, 0, 0, nil); errCode(err) != server.CodeUnavailable {
		t.Fatalf("in-memory FetchWAL code = %v, want unavailable", errCode(err))
	}
	if st, err := adminMem.ReplicationStatus(ctx); err != nil || st.Role != "primary" || st.AppliedSeq != 0 {
		t.Fatalf("in-memory status = %+v, err %v", st, err)
	}
}

// errCode extracts the envelope code from a client error ("" otherwise).
func errCode(err error) server.ErrorCode {
	var apiErr *client.Error
	if errors.As(err, &apiErr) {
		return apiErr.API.Code
	}
	return ""
}

// staticSource is an in-process ReplicationSource holding no records: enough
// to build a follower and exercise its HTTP write gating.
type staticSource struct{}

func (staticSource) FetchSnapshot(context.Context) (uint64, *storage.StoreState, bool, error) {
	return 0, nil, false, nil
}

func (staticSource) FetchWAL(ctx context.Context, after uint64, wait time.Duration, fn func(uint64, []byte) error) (uint64, int64, error) {
	return after, 0, nil
}

func (staticSource) Primary() string { return "http://primary.example:8080" }

// TestFollowerRefusesWrites: every mutating route on a follower returns the
// structured read_only envelope naming the primary; reads and mining passes
// still serve.
func TestFollowerRefusesWrites(t *testing.T) {
	eng := engine.New()
	if err := workload.Populate(eng, 200, 1); err != nil {
		t.Fatalf("Populate: %v", err)
	}
	cqms, err := core.OpenFollower(eng, core.DefaultConfig(), staticSource{})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	ts := httptest.NewServer(server.New(cqms).Handler())
	t.Cleanup(ts.Close)
	alice := client.New(ts.URL, client.WithUser("alice", "limnology"))
	admin := client.New(ts.URL, client.WithAdmin())

	checkReadOnly := func(what string, err error) {
		t.Helper()
		var apiErr *client.Error
		if !errors.As(err, &apiErr) || apiErr.API.Code != server.CodeReadOnly {
			t.Fatalf("%s err = %v, want code read_only", what, err)
		}
		if apiErr.Status != 403 {
			t.Errorf("%s status = %d, want 403", what, apiErr.Status)
		}
		if got := apiErr.Detail("primary"); got != "http://primary.example:8080" {
			t.Errorf("%s primary detail = %q", what, got)
		}
		if got := apiErr.Detail("role"); got != "follower" {
			t.Errorf("%s role detail = %q", what, got)
		}
	}
	_, err = alice.Submit(ctx, "SELECT lake FROM WaterTemp")
	checkReadOnly("Submit", err)
	_, err = alice.SubmitBatch(ctx, []server.SubmitParams{{SQL: "SELECT lake FROM WaterTemp"}})
	checkReadOnly("SubmitBatch", err)
	checkReadOnly("Annotate", alice.Annotate(ctx, 1, "note"))
	checkReadOnly("SetVisibility", alice.SetVisibility(ctx, 1, "public"))
	checkReadOnly("DeleteQuery", alice.DeleteQuery(ctx, 1))
	_, err = admin.Maintain(ctx)
	checkReadOnly("Maintain", err)
	_, err = admin.LogBackup(ctx)
	checkReadOnly("LogBackup", err)
	_, err = admin.LogCompact(ctx)
	checkReadOnly("LogCompact", err)

	// Reads serve normally and the status surfaces report the follower role.
	// A mining pass writes nothing, so a follower runs it too.
	if _, err := drain(alice.SearchKeyword(ctx, "salinity")); err != nil {
		t.Fatalf("follower search: %v", err)
	}
	if _, err := admin.Mine(ctx); err != nil {
		t.Fatalf("follower Mine: %v", err)
	}
	st, err := alice.ReplicationStatus(ctx)
	if err != nil {
		t.Fatalf("ReplicationStatus: %v", err)
	}
	if st.Role != "follower" || st.Primary != "http://primary.example:8080" {
		t.Fatalf("follower status = %+v", st)
	}
	if st.StalenessSeconds != -1 {
		t.Fatalf("staleness before first catch-up = %v, want -1", st.StalenessSeconds)
	}
	stats, err := alice.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.Status.Role != "follower" {
		t.Fatalf("stats role = %q, want follower", stats.Status.Role)
	}
}
