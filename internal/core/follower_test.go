package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/profiler"
	"repro/internal/storage"
)

// idleSource is a ReplicationSource with nothing to send: enough to build a
// follower whose store only the test advances.
type idleSource struct{}

func (idleSource) FetchSnapshot(context.Context) (uint64, *storage.StoreState, bool, error) {
	return 0, nil, false, nil
}

func (idleSource) FetchWAL(_ context.Context, after uint64, _ time.Duration, _ func(uint64, []byte) error) (uint64, int64, error) {
	return after, 0, nil
}

func (idleSource) Primary() string { return "http://primary.example:8080" }

// TestFollowerRefusesEmbeddedWrites: the HTTP layer refuses writes on a
// follower by role, but an embedder holds the CQMS itself. Every way it could
// write — Submit, SubmitBatch and each mutating store method — is refused
// with storage.ErrReadOnly before anything runs or is logged; Apply, the
// replication entry, still advances the store.
func TestFollowerRefusesEmbeddedWrites(t *testing.T) {
	c, err := OpenFollower(engine.New(), DefaultConfig(), idleSource{})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, storage.ErrReadOnly) {
			t.Errorf("%s: err = %v, want storage.ErrReadOnly", what, err)
		}
	}

	// A refused submission must not reach the engine either: DDL would stick.
	ddl := profiler.Submission{User: "alice", SQL: "CREATE TABLE Depths (id INT, depth FLOAT)"}
	version := c.Engine().Catalog().Version()
	out, err := c.Submit(ddl)
	refused("Submit", err)
	outs, errs, err := c.SubmitBatch(context.Background(), []profiler.Submission{ddl, {User: "alice", SQL: "SELECT 1 FROM"}})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	for i := range errs {
		refused("SubmitBatch item", errs[i])
		if outs[i] != nil {
			t.Errorf("SubmitBatch item %d has an outcome: %+v", i, outs[i])
		}
	}
	if got := c.Engine().Catalog().Version(); out != nil || got != version {
		t.Errorf("a refused CREATE TABLE ran: outcome %+v, catalog version %d -> %d", out, version, got)
	}

	s := c.Store()
	rec := &storage.QueryRecord{QueryShape: &storage.QueryShape{Text: "SELECT 1", Canonical: "select 1"}, User: "alice"}
	_, err = s.Put(rec)
	refused("Put", err)
	_, putErrs := s.PutBatch([]*storage.QueryRecord{rec})
	refused("PutBatch", errors.Join(putErrs...))
	for what, err := range map[string]error{
		"Annotate":       c.Annotate(1, alice, storage.Annotation{Text: "note"}),
		"SetVisibility":  c.SetVisibility(1, alice, storage.VisibilityPublic),
		"DeleteQuery":    c.DeleteQuery(1, alice),
		"MarkInvalid":    s.MarkInvalid(1, "schema change"),
		"MarkValid":      s.MarkValid(1),
		"MarkStatsStale": s.MarkStatsStale(1, true),
		"UpdateStats":    s.UpdateStats(1, storage.RuntimeStats{}),
		"SetSample":      s.SetSample(1, nil),
		"ReplaceText":    s.ReplaceText(1, rec),
	} {
		refused(what, err)
	}
	if n := s.Count(); n != 0 {
		t.Fatalf("the replica holds %d records after refused writes, want 0", n)
	}

	replicated := &storage.QueryRecord{ID: 1, QueryShape: &storage.QueryShape{Text: "SELECT 1", Canonical: "select 1"}, User: "alice", Valid: true}
	if err := s.Apply(&storage.Mutation{Op: storage.OpPut, Record: replicated}); err != nil {
		t.Fatalf("Apply on a read-only store: %v", err)
	}
	if s.Count() != 1 || c.StatsTracker().QueryCount(admin) != 1 {
		t.Fatalf("Apply did not advance the replica: %d records, %d counted", s.Count(), c.StatsTracker().QueryCount(admin))
	}
}
