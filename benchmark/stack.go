package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/workload"
)

// nproc is both GOMAXPROCS and the number of connections the generator
// drives: one process offers all the load, over at most one connection per
// core, so the generator cannot out-schedule the server it shares a box
// with.
var nproc = runtime.GOMAXPROCS(0)

// stack is the real program, started in-process: engine, core (with a
// durable log in dir), the /v1 handler on a loopback listener, and an
// internal/client pointed at it.
type stack struct {
	spec *workloadSpec

	core   *core.CQMS
	srv    *http.Server
	url    string
	tr     *http.Transport
	client *client.Client

	preloaded          int
	heapBytesPerRecord float64
}

// newEngine returns the embedded database, populated.
func newEngine(spec *workloadSpec) (*engine.Engine, error) {
	eng := engine.New()
	// The database contents are part of the program's fixed configuration,
	// not of the offered load, so its seed does not follow -seed.
	if err := workload.Populate(eng, spec.rows, 1); err != nil {
		return nil, err
	}
	return eng, nil
}

func coreConfig(spec *workloadSpec, dir string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Durability = wal.DefaultConfig(dir)
	cfg.Durability.SyncPolicy = spec.syncPolicy
	// The background scheduler is never started: a time-triggered snapshot
	// or mining pass landing in one run and not the next is noise, and the
	// restart workload calls Compact itself.
	cfg.Durability.SnapshotEvery = 0
	return cfg
}

// preloadRecords commits the pre-run log straight through Store.PutBatch:
// the store, the bus subscribers and the WAL all see it exactly as they see
// live traffic, without paying an engine execution per record (1.5 ms each
// for exploratory SQL — 30 s for the large log). The runtime features the
// profiler would have captured are filled with plausible values drawn from
// the seed, so records weigh what real ones do. offset is how many records
// earlier calls already loaded; it keeps issue times increasing.
func preloadRecords(c *core.CQMS, spec *workloadSpec, ops []op, offset int, seed int64) error {
	r := rand.New(rand.NewSource(seed*1000003 + 4 + int64(offset)))
	version := c.Engine().Catalog().Version()
	base := preloadEpoch
	const chunk = 256
	recs := make([]*storage.QueryRecord, 0, chunk)
	for i := range ops {
		rec, err := storage.NewRecordFromSQL(ops[i].text)
		if err != nil {
			return fmt.Errorf("preload statement %d: %w", i, err)
		}
		rec.User = workload.UserName(ops[i].user)
		rec.Group = groupOf(spec, ops[i].user)
		rec.Visibility = storage.VisibilityGroup
		rec.IssuedAt = base.Add(time.Duration(offset+i) * time.Second)
		rows := 1 + r.Intn(200)
		rec.Stats = storage.RuntimeStats{
			ExecTime:      time.Duration(200+r.Intn(3000)) * time.Microsecond,
			ResultRows:    rows,
			ResultColumns: 3,
			SchemaVersion: version,
			ExecutedAt:    rec.IssuedAt,
		}
		sample := &storage.OutputSample{Columns: []string{"lake", "temp", "day"}, TotalRows: rows, Truncated: rows > 5}
		for j := 0; j < min(rows, 5); j++ {
			sample.Rows = append(sample.Rows, []string{
				"Lake " + workload.UserName(r.Intn(8)), fmt.Sprintf("%.4f", 4+r.Float64()*26), fmt.Sprint(r.Intn(365)),
			})
		}
		rec.Sample = sample
		recs = append(recs, rec)
		if len(recs) == chunk || i == len(ops)-1 {
			c.Store().PutBatch(recs)
			recs = recs[:0]
		}
	}
	return nil
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// startStack is a serving workload's set-up: populate the database, open
// the CQMS on a fresh data directory, preload the log, start the server.
// tr is nil when tracing is off.
func startStack(spec *workloadSpec, dir string, preload []op, seed int64, tr *tracer) (*stack, error) {
	eng, err := newEngine(spec)
	if err != nil {
		return nil, err
	}
	c, err := core.OpenWithEngine(eng, coreConfig(spec, dir))
	if err != nil {
		return nil, err
	}
	st := &stack{spec: spec, core: c, preloaded: len(preload)}
	var before uint64
	if tr != nil {
		before = liveHeap()
	}
	// A server that has been up for a minute has run its background mining
	// pass: completions come from the installed result and the rule feed's
	// per-commit counting is retired. Mine early in the preload — the pass is
	// seconds on the full log — so the run measures that steady state with a
	// result as stale as a live server's usually is.
	mineAt := min(spec.mineAt, len(preload))
	err = preloadRecords(c, spec, preload[:mineAt], 0, seed)
	if err == nil && mineAt > 0 {
		c.RunMiner()
	}
	if err == nil {
		err = preloadRecords(c, spec, preload[mineAt:], mineAt, seed)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	if tr != nil && len(preload) > 0 {
		st.heapBytesPerRecord = float64(liveHeap()-before) / float64(len(preload))
	}
	if err := st.serve(tr); err != nil {
		c.Close()
		return nil, err
	}
	return st, nil
}

// serve starts the HTTP server over st.core and builds the client.
func (st *stack) serve(tr *tracer) error {
	handler := server.New(st.core).Handler()
	if tr != nil {
		handler = tracingHandler(tr, handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.srv = &http.Server{Handler: handler}
	go st.srv.Serve(ln) // returns when stop shuts the server down
	st.url = "http://" + ln.Addr().String()

	st.tr = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	var rt http.RoundTripper = st.tr
	if tr != nil {
		rt = &tracingTransport{base: st.tr, t: tr}
	}
	st.client = client.New(st.url,
		client.WithHTTPClient(&http.Client{Transport: rt, Timeout: 10 * time.Second}),
		client.WithPageSize(pageSize))
	return nil
}

// stop shuts the server down and closes the log; the data directory stays.
func (st *stack) stop() error {
	st.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	if cerr := st.core.Close(); err == nil {
		err = cerr
	}
	return err
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// scratch is where data directories and trace files go: inside the
// checkout, ignored by git.
var scratch = filepath.Join("benchmark", "out")

// tempDir makes a fresh directory under scratch.
func tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratch, prefix)
}

// preloadEpoch is the issue time of the first preloaded record: a day before
// the run, in whole seconds, one second apart — strictly before anything
// submitted live, because a record that lands earlier than its user's latest
// sends the session detector down its re-segmentation path, which is not
// what a log that grows at its tail does.
var preloadEpoch = time.Now().Add(-24 * time.Hour).Truncate(time.Second)
