package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/profiler"
	"repro/internal/session"
	"repro/internal/storage"
)

// countOps subscribes to the store's bus and returns the running count of
// committed mutations by op.
func countOps(c *CQMS) map[storage.MutationOp]int {
	ops := make(map[storage.MutationOp]int)
	c.Store().Subscribe("op-counter", func(m *storage.Mutation) { ops[m.Op]++ }, storage.SubscribeOptions{})
	return ops
}

// storedSessions reads the session assignments persisted on the store's
// records: the distinct session IDs, ascending, and each one's query count.
func storedSessions(c *CQMS) ([]int64, map[int64]int) {
	sizes := map[int64]int{}
	c.Store().Snapshot().Scan(admin, func(rec *storage.QueryRecord) bool {
		if rec.SessionID != 0 {
			sizes[rec.SessionID]++
		}
		return true
	})
	ids := make([]int64, 0, len(sizes))
	for id := range sizes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids, sizes
}

func edgeLabels(c *CQMS) uint64 {
	return c.Metrics().Counter("cqms_sessions_edge_labels_total", "").Value()
}

// TestPersistSessionsWritesBackToStore checks what a mining pass persists:
// every query's session assignment and one edge per consecutive pair land in
// the store, and a second pass over the same log writes nothing.
func TestPersistSessionsWritesBackToStore(t *testing.T) {
	c := newSystem(t)
	base := time.Date(2009, 1, 5, 14, 30, 0, 0, time.UTC)
	loadFigure2Session(t, c, "nodira", base)
	submit(t, c, "magda", "limnology", "SELECT city FROM CityLocations", base.Add(3*time.Hour))

	c.persistSessions()
	sessions, err := c.Sessions(context.Background(), admin)
	if err != nil || len(sessions) != 2 {
		t.Fatalf("Sessions = %+v (err %v), want 2", sessions, err)
	}
	ids, sizes := storedSessions(c)
	if !reflect.DeepEqual(ids, []int64{sessions[0].ID, sessions[1].ID}) {
		t.Errorf("store session IDs = %v, want those of %+v", ids, sessions)
	}
	for _, s := range sessions {
		if sizes[s.ID] != s.QueryCount {
			t.Errorf("store session %d has %d queries, want %d", s.ID, sizes[s.ID], s.QueryCount)
		}
	}
	edges := c.Store().Edges()
	if len(edges) != 4 {
		t.Fatalf("store edges = %d, want 4 (five queries in a row)", len(edges))
	}
	for i, e := range edges {
		if e.From != storage.QueryID(i+1) || e.To != storage.QueryID(i+2) || e.Diff == "" {
			t.Errorf("edge %d = %+v, want a labelled %d -> %d", i, e, i+1, i+2)
		}
	}

	ops, labels := countOps(c), edgeLabels(c)
	c.persistSessions()
	if len(ops) != 0 || edgeLabels(c) != labels {
		t.Errorf("a second pass emitted %v and computed %d labels, want nothing", ops, edgeLabels(c)-labels)
	}
}

// TestMiningPassAfterOutOfOrderPutReassignsOnlyWhatMoved pins the WAL cost of
// a late arrival. One record landing inside a 200-query session used to
// reissue every session ID of its user, so the next mining pass wrote one
// assignment per record of the stream; with stable IDs it writes the new
// record's, those of the part that split off, and the new pairs' edges.
func TestMiningPassAfterOutOfOrderPutReassignsOnlyWhatMoved(t *testing.T) {
	c := newSystem(t)
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	// 200 similar queries a minute apart, with a ten-minute pause after the
	// 150th that similarity bridges: one session.
	at := func(i int) time.Time {
		if i >= 150 {
			return base.Add(time.Duration(i+9) * time.Minute)
		}
		return base.Add(time.Duration(i) * time.Minute)
	}
	for i := 0; i < 200; i++ {
		submit(t, c, "alice", "limnology", fmt.Sprintf("SELECT lake FROM WaterTemp WHERE temp < %d", i%30), at(i))
	}
	c.RunMiner()
	if got, _ := storedSessions(c); len(got) != 1 {
		t.Fatalf("the stream persisted as sessions %v, want one", got)
	}
	ops, labels := countOps(c), edgeLabels(c)

	// Late, similar, a minute into the stream: joins both neighbours.
	submit(t, c, "alice", "limnology", "SELECT lake FROM WaterTemp WHERE temp < 7", base.Add(90*time.Second))
	c.RunMiner()
	want := map[storage.MutationOp]int{storage.OpPut: 1, storage.OpAssignSession: 1, storage.OpAddEdge: 2}
	if !reflect.DeepEqual(ops, want) || edgeLabels(c)-labels != 2 {
		t.Fatalf("a late put that moves no boundary: ops %v, %d labels; want %v and 2 labels", ops, edgeLabels(c)-labels, want)
	}

	// Late and unrelated, in the pause: it cannot continue query 150 across
	// more than the soft gap, query 151 continues it — the last 50 queries
	// split off behind it into a new session.
	submit(t, c, "alice", "limnology", "SELECT city FROM CityLocations", at(149).Add(330*time.Second))
	c.RunMiner()
	want = map[storage.MutationOp]int{storage.OpPut: 2, storage.OpAssignSession: 1 + 51, storage.OpAddEdge: 2 + 1}
	if !reflect.DeepEqual(ops, want) || edgeLabels(c)-labels != 3 {
		t.Fatalf("a late put that splits off 50 queries: ops %v, %d labels; want %v and 3 labels", ops, edgeLabels(c)-labels, want)
	}
	if got, _ := storedSessions(c); !reflect.DeepEqual(got, []int64{1, 2}) {
		t.Fatalf("persisted sessions %v, want 1 and 2", got)
	}

	// Nothing new: nothing written, nothing labelled.
	c.RunMiner()
	if !reflect.DeepEqual(ops, want) || edgeLabels(c)-labels != 3 {
		t.Fatalf("a pass with nothing new: ops %v, %d labels; want %v and 3 labels", ops, edgeLabels(c)-labels, want)
	}
}

// TestConcurrentSubmittersOneUser is the capture proxy's normal case: one
// database user on two connections, one submitting statement by statement,
// one in batches stamped before their single commit, so records reach the
// detector behind their user's tail. The windows must equal a batch
// re-segmentation, at no more than two boundary evaluations a record and
// without a single label computed by the writes. Run with -race.
func TestConcurrentSubmittersOneUser(t *testing.T) {
	c := newSystem(t)
	const singles, batches, perBatch = 976, 32, 32 // 2,000 records
	sql := func(i int) string { return fmt.Sprintf("SELECT lake FROM WaterTemp WHERE temp < %d", i%40) }
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < singles; i++ {
			if _, err := c.Submit(profiler.Submission{User: "app", SQL: sql(i)}); err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			subs := make([]profiler.Submission, perBatch)
			for i := range subs {
				subs[i] = profiler.Submission{User: "app", SQL: sql(b*perBatch + i)}
			}
			_, errs, err := c.SubmitBatch(context.Background(), subs)
			if err != nil {
				t.Errorf("SubmitBatch: %v", err)
				return
			}
			for _, err := range errs {
				if err != nil {
					t.Errorf("SubmitBatch statement: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	const records = singles + batches*perBatch
	if got := c.Store().Count(); got != records {
		t.Fatalf("store holds %d records, want %d", got, records)
	}
	if got := c.sessions.BoundaryEvaluations(); got > 2*records {
		t.Errorf("%d boundary evaluations for %d puts, want at most two each", got, records)
	}
	if got := edgeLabels(c); got != 0 {
		t.Errorf("the writes computed %d edge labels", got)
	}
	edits := c.Metrics().CounterVec("cqms_sessions_edits_total", "", "kind")
	if a, i := edits.With("append").Value(), edits.With("insert").Value(); a+i != records {
		t.Errorf("%d appends + %d inserts counted for %d puts", a, i, records)
	} else {
		t.Logf("%d records arrived behind their user's tail", i)
	}

	type window struct {
		user    string
		queries []storage.QueryID
		edges   []storage.SessionEdge
	}
	reduce := func(sessions []session.Session) []window {
		out := make([]window, len(sessions))
		for i, s := range sessions {
			out[i] = window{user: s.User, edges: s.Edges}
			for _, q := range s.Queries {
				out[i].queries = append(out[i].queries, q.ID)
			}
		}
		return out
	}
	batch := session.NewDetector(c.cfg.Session).Detect(c.Store().Snapshot().Records(admin), 0)
	if got, want := reduce(c.sessions.Export()), reduce(batch); !reflect.DeepEqual(got, want) {
		t.Fatalf("live sessions diverge from batch detection: %d live, %d batch", len(got), len(want))
	}
}
