package main

import (
	"context"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/profiler"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/workload"
)

// probeOps caps how many ops the depth replay walks; the time budget usually
// ends it first on the scan-heavy workload.
const probeOps = 600

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func principalOf(spec *workloadSpec, user int) storage.Principal {
	return storage.Principal{User: workload.UserName(user), Groups: []string{groupOf(spec, user)}}
}

// probeLayers replays the head of the schedule a third time, now as direct
// timed calls: each op once at core depth, and one level down on core's own
// components (NewRecordFromSQL → Engine.Execute → Store.Put for a submit).
// The ops run one at a time, in schedule order, on the stack the load phases
// just used — in order because reads are cheap right after another read and
// dear right after a write (the recommender recomputes its rule snapshot),
// and only the workload's own interleaving gives the share of each that
// users see. A read-only workload therefore never touches the write path
// here either: its idle layers report zero.
func probeLayers(st *stack, tr *tracer, ops []op, budget time.Duration, m map[string]float64) {
	c := st.core
	ctx := context.Background()
	deadline := time.Now().Add(budget)
	lat := map[string][]float64{}
	timed := func(layer, name string, fn func()) {
		lat[layer+"."+name] = append(lat[layer+"."+name], us(tr.timed(layer, name, fn)))
	}

	// Capture what the bus delivers, for the codec probes at the end.
	var captured []*storage.Mutation
	cancel := c.Store().Subscribe("benchmark-capture", func(mu *storage.Mutation) {
		if len(captured) < probeOps {
			captured = append(captured, mu)
		}
	}, storage.SubscribeOptions{})

	var executed []string
	var rows, scanned []float64
	for i := 0; i < min(len(ops), probeOps) && time.Now().Before(deadline); i++ {
		o := &ops[i]
		user, group := workload.UserName(o.user), groupOf(st.spec, o.user)
		p := principalOf(st.spec, o.user)
		switch o.kind {
		case opSubmit:
			timed("core", "submit", func() {
				_, _ = c.Submit(profiler.Submission{User: user, Group: group, Visibility: storage.VisibilityGroup, SQL: o.text})
			})
			timed("sql", "parse", func() { _, _ = sql.Parse(o.text) })
			var rec *storage.QueryRecord
			timed("sql", "record", func() { rec, _ = storage.NewRecordFromSQL(o.text) })
			timed("engine", "execute", func() {
				if res, err := c.Engine().Execute(o.text); err == nil {
					rows = append(rows, float64(res.Cardinality()))
				}
			})
			executed = append(executed, o.text)
			if rec != nil {
				rec.User, rec.Group, rec.Visibility, rec.IssuedAt = user, group, storage.VisibilityGroup, time.Now()
				timed("storage", "put", func() { c.Store().Put(rec) })
			}
		case opBatch:
			subs := make([]profiler.Submission, len(o.batch))
			for j, s := range o.batch {
				subs[j] = profiler.Submission{User: user, Group: group, Visibility: storage.VisibilityGroup, SQL: s}
			}
			timed("core", "batch", func() { _, _, _ = c.SubmitBatch(ctx, subs) })
			recs := make([]*storage.QueryRecord, 0, len(o.batch))
			for _, s := range o.batch {
				if rec, err := storage.NewRecordFromSQL(s); err == nil {
					rec.User, rec.Group, rec.Visibility, rec.IssuedAt = user, group, storage.VisibilityGroup, time.Now()
					recs = append(recs, rec)
				}
			}
			d := tr.timed("storage", "putbatch", func() { c.Store().PutBatch(recs) })
			lat["storage.putbatch"] = append(lat["storage.putbatch"], ratio(us(d), float64(len(recs))))
		case opKeyword, opSubstring:
			var matches int
			timed("metaquery", o.kind.String(), func() {
				if o.kind == opKeyword {
					ms, _ := c.Search(ctx, p, o.text)
					matches = len(ms)
				} else {
					ms, _ := c.SearchSubstring(ctx, p, o.text)
					matches = len(ms)
				}
			})
			// Records examined per match the first page returns.
			scanned = append(scanned, float64(c.Store().Snapshot().Len())/float64(max(1, min(matches, pageSize))))
		case opComplete:
			timed("recommend", "complete", func() { _, _ = c.Complete(ctx, p, o.text, 5) })
			timed("session", "list", func() { _, _ = c.SessionsPage(ctx, p, 0, pageSize) })
		case opStats:
			// The tracker reads GET /v1/stats makes.
			t := c.StatsTracker()
			timed("stats", "read", func() {
				t.QueryCount(p)
				t.TableCounts(p)
				t.UserActivity(p)
				t.TopPredicates(p, 20)
				t.Bounds(p)
			})
		case opHistory:
			timed("core", "history", func() {
				_, _, _ = c.HistoryPage(ctx, p, o.text, core.HistoryCursor{}, pageSize)
			})
		}
	}
	cancel()

	for _, mu := range captured {
		var payload []byte
		timed("wal", "encode", func() { payload, _ = mu.Encode() })
		timed("wal", "decode", func() { _, _ = storage.DecodeMutation(payload) })
	}

	m["core.submit_us"] = median(lat["core.submit"])
	m["sql.parse_us"] = median(lat["sql.parse"])
	m["sql.record_us"] = median(lat["sql.record"])
	m["engine.execute_us"] = median(lat["engine.execute"])
	m["engine.rows_per_exec"] = mean(rows)
	m["engine.allocs_per_exec"] = allocsPerExec(st, executed)
	m["storage.put_us"] = median(lat["storage.put"])
	m["storage.putbatch_us_per_record"] = median(lat["storage.putbatch"])
	m["profiler.self_us"] = m["core.submit_us"] - (m["sql.record_us"] + m["engine.execute_us"] + m["storage.put_us"])
	m["wal.encode_us"] = median(lat["wal.encode"])
	m["wal.decode_us"] = median(lat["wal.decode"])
	m["core.search_us"] = median(append(append([]float64(nil), lat["metaquery.keyword"]...), lat["metaquery.substring"]...))
	m["metaquery.keyword_us"] = median(lat["metaquery.keyword"])
	m["metaquery.substring_us"] = median(lat["metaquery.substring"])
	m["metaquery.scanned_per_result"] = mean(scanned)
	m["metaquery.page2_ratio"] = page2Ratio(st, ops)
	// core.Complete is recommend.Complete behind a context check: one call,
	// reported at both depths.
	m["core.complete_us"] = median(lat["recommend.complete"])
	m["recommend.complete_us"] = median(lat["recommend.complete"])
	m["session.list_us"] = median(lat["session.list"])
	m["stats.read_us"] = median(lat["stats.read"])
	m["storage.scan_us_per_krecord"] = probeScan(c.Store(), tr)
}

// allocsPerExec re-executes the statements on one goroutine with nothing
// else running, so the Mallocs delta is exact.
func allocsPerExec(st *stack, stmts []string) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range stmts {
		_, _ = st.core.Engine().Execute(s)
	}
	runtime.ReadMemStats(&after)
	return ratio(float64(after.Mallocs-before.Mallocs), float64(len(stmts)))
}

// page2Ratio follows keyword searches to their second page through the API
// (pagination lives in the server) and compares the two pages' medians.
func page2Ratio(st *stack, ops []op) float64 {
	var first, second []float64
	for i := range ops {
		if ops[i].kind != opKeyword || len(first) >= 20 {
			continue
		}
		followed := ops[i]
		followed.page2 = true
		start := time.Now()
		_, page2, err := st.execute(context.Background(), &followed)
		if err == nil && page2 > 0 {
			first = append(first, msSince(start)-page2)
			second = append(second, page2)
		}
	}
	return ratio(median(second), median(first))
}

// probeScan times a full visibility-filtered scan, per thousand records.
func probeScan(store *storage.Store, tr *tracer) float64 {
	admin := storage.Principal{Admin: true}
	var scans []float64
	for i := 0; i < 5; i++ {
		n := 0
		d := tr.timed("storage", "scan", func() {
			store.Snapshot().Scan(admin, func(*storage.QueryRecord) bool { n++; return true })
		})
		scans = append(scans, ratio(us(d), float64(n)/1000))
	}
	return median(scans)
}
