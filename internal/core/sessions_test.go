package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
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

func edgeLabels(c *CQMS) uint64 {
	return c.Metrics().Counter("cqms_sessions_edge_labels_total", "").Value()
}

// TestMiningPassWritesNothing: sessions live in the detector alone, so a
// mining pass emits no mutation, computes no edge label and leaves the WAL's
// last sequence where it was — the first pass over a fresh log of 1,000
// records from 50 users, and a pass after a late put that split a session,
// alike.
func TestMiningPassWritesNothing(t *testing.T) {
	c := openDurable(t, t.TempDir())
	defer c.Close()
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	recs := make([]*storage.QueryRecord, 1000)
	for i := range recs {
		rec, err := storage.NewRecordFromSQL(fmt.Sprintf("SELECT lake FROM WaterTemp WHERE temp < %d", i%30))
		if err != nil {
			t.Fatal(err)
		}
		rec.User, rec.Group, rec.Visibility = fmt.Sprintf("user%02d", i%50), "limnology", storage.VisibilityGroup
		rec.IssuedAt = base.Add(time.Duration(i) * 10 * time.Second)
		recs[i] = rec
	}
	if _, errs := c.Store().PutBatch(recs); errs != nil {
		t.Fatalf("PutBatch: %v", errs)
	}
	ops, labels := countOps(c), edgeLabels(c)
	pass := func(what string) {
		t.Helper()
		seq := c.Durability().LastSeq()
		c.RunMiner()
		if len(ops) != 0 || edgeLabels(c) != labels || c.Durability().LastSeq() != seq {
			t.Fatalf("%s: emitted %v, computed %d labels, moved the WAL from %d to %d; want nothing",
				what, ops, edgeLabels(c)-labels, seq, c.Durability().LastSeq())
		}
	}
	pass("the first pass over a fresh log")
	if n := c.SessionCount(); n != 50 {
		t.Fatalf("%d sessions for 50 users' steady streams", n)
	}

	// Late and unrelated, six minutes into user00's second pause: the later
	// part of that user's session splits off behind it.
	submit(t, c, "user00", "limnology", "SELECT city FROM CityLocations", base.Add(860*time.Second))
	if n := c.SessionCount(); n != 51 {
		t.Fatalf("%d sessions after the late put, want 51", n)
	}
	clear(ops)
	pass("a pass after a late put")
}

// TestMaintenancePassWritesNothing: quality is computed on read, and an update
// a record already holds is no change, so a maintenance pass commits only what
// changed. Over 1,000 records from 50 users, the first pass flags the queries
// of a column the catalog never had; the next two emit no mutation and leave
// the WAL's last sequence where it was; after a column rename one pass commits
// the repairs and nothing else — no mark-valid for a query that was valid —
// and the pass after it nothing at all.
func TestMaintenancePassWritesNothing(t *testing.T) {
	c := openDurable(t, t.TempDir())
	defer c.Close()
	base := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	version := c.Engine().Catalog().Version()
	texts := []string{
		"SELECT lake FROM WaterTemp WHERE temp < %d",
		"SELECT lake FROM WaterSalinity WHERE salinity > %d",
		"SELECT city FROM CityLocations WHERE pop > %d",
		"SELECT lake FROM WaterTemp WHERE clarity > %d", // no such column
	}
	recs := make([]*storage.QueryRecord, 1000)
	for i := range recs {
		rec, err := storage.NewRecordFromSQL(fmt.Sprintf(texts[i%len(texts)], i%30))
		if err != nil {
			t.Fatal(err)
		}
		rec.User, rec.Group, rec.Visibility = fmt.Sprintf("user%02d", i%50), "limnology", storage.VisibilityGroup
		rec.IssuedAt = base.Add(time.Duration(i) * 10 * time.Second)
		rec.Stats = storage.RuntimeStats{SchemaVersion: version, ExecutedAt: rec.IssuedAt}
		recs[i] = rec
	}
	if _, errs := c.Store().PutBatch(recs); errs != nil {
		t.Fatalf("PutBatch: %v", errs)
	}
	ops := countOps(c)
	pass := func(what string, want map[storage.MutationOp]int) {
		t.Helper()
		clear(ops)
		seq := c.Durability().LastSeq()
		if _, err := c.RunMaintenance(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		logged := 0
		for _, n := range want {
			logged += n
		}
		if !reflect.DeepEqual(ops, want) || c.Durability().LastSeq() != seq+uint64(logged) {
			t.Fatalf("%s: emitted %v and moved the WAL from %d to %d; want %v", what, ops, seq, c.Durability().LastSeq(), want)
		}
	}
	pass("the first pass over a fresh log", map[storage.MutationOp]int{storage.OpMarkInvalid: 250})
	pass("a second pass", map[storage.MutationOp]int{})
	pass("a third pass", map[storage.MutationOp]int{})

	if _, err := c.ExecuteUnprofiled("ALTER TABLE WaterSalinity RENAME COLUMN salinity TO psu"); err != nil {
		t.Fatal(err)
	}
	pass("the pass after a rename", map[storage.MutationOp]int{storage.OpReplaceText: 250})
	pass("the pass after the repairs", map[storage.MutationOp]int{})
	for _, rec := range c.Store().Snapshot().Records(admin) {
		if strings.Contains(rec.Text, "salinity") {
			t.Fatalf("q%d was not repaired: %s", rec.ID, rec.Text)
		}
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
		edges   []session.Edge
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
	batch := session.NewDetector().Detect(c.Store().Snapshot().Records(admin))
	if got, want := reduce(c.sessions.Export()), reduce(batch); !reflect.DeepEqual(got, want) {
		t.Fatalf("live sessions diverge from batch detection: %d live, %d batch", len(got), len(want))
	}
}
