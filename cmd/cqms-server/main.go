// Command cqms-server runs the CQMS server of Figure 4 over HTTP: an embedded
// scientific database, the Query Profiler / Storage / Meta-query Executor /
// Miner / Maintenance stack, and the JSON API consumed by cqmsctl and the
// examples.
//
// Usage:
//
//	cqms-server -addr :8080 -rows 2000 -seed 1 -replay-users 10
//	cqms-server -addr :8080 -data-dir /var/lib/cqms
//	cqms-server -addr :8081 -follow http://primary:8080 -replay-users 0
//
// With -data-dir the query log is durable: every mutation is appended to a
// segmented write-ahead log and the store is snapshotted periodically, so a
// restart recovers the full log (snapshot + WAL tail replay) instead of
// starting empty. With -replay-users > 0 the server pre-loads a synthetic
// multi-user trace so that search, recommendation and session browsing have
// something to work with immediately; replay is skipped when a data
// directory already holds recovered queries.
//
// With -follow the server runs as a read replica: it bootstraps from the
// primary's newest snapshot over GET /v1/replication/snapshot, tails its WAL
// stream, and serves the read surface (search, history, sessions, assist,
// stats) from the replicated state. Writes are refused with a read_only
// envelope naming the primary. -follow is incompatible with -data-dir — a
// follower keeps no local log, it re-bootstraps on restart.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/profiler"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
)

func main() {
	var (
		addr              = flag.String("addr", ":8080", "listen address")
		rows              = flag.Int("rows", 2000, "rows per measurement table in the synthetic database")
		seed              = flag.Int64("seed", 1, "random seed for data and trace generation")
		replayUsers       = flag.Int("replay-users", 10, "number of synthetic users to replay at startup (0 disables)")
		replaySessions    = flag.Int("replay-sessions", 5, "sessions per synthetic user to replay at startup")
		miningInterval    = flag.Duration("mine-every", time.Minute, "background mining interval")
		maintainInterval  = flag.Duration("maintain-every", 5*time.Minute, "background maintenance interval")
		dataDir           = flag.String("data-dir", "", "directory for the durable query log (empty: in-memory only)")
		follow            = flag.String("follow", "", "run as a read replica of the primary at this base URL (incompatible with -data-dir)")
		syncPolicy        = flag.String("sync", "interval", "WAL fsync policy: always, interval or off")
		segmentBytes      = flag.Int64("segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation threshold")
		snapshotEvery     = flag.Duration("snapshot-every", 5*time.Minute, "background snapshot/compaction interval")
		readHeaderTimeout = flag.Duration("read-header-timeout", 10*time.Second, "HTTP read-header timeout")
		readTimeout       = flag.Duration("read-timeout", 30*time.Second, "HTTP read timeout")
		writeTimeout      = flag.Duration("write-timeout", time.Minute, "HTTP write timeout (bounds slow scans)")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "HTTP keep-alive idle timeout")
		captureParseErrs  = flag.Bool("capture-parse-errors", false, "log unparsable submissions as raw records (parse_error class) instead of rejecting them; enable when a cqms-proxy submits passively captured traffic here")
		accessLog         = flag.Bool("access-log", true, "log one line per request")
		slowRequest       = flag.Duration("slow-request", time.Second, "log requests slower than this with their request ID (0 disables)")
	)
	flag.Parse()

	eng := engine.New()
	log.Printf("populating synthetic scientific database (%d rows per table)", *rows)
	if err := workload.Populate(eng, *rows, *seed); err != nil {
		log.Fatalf("populating database: %v", err)
	}

	cfg := core.DefaultConfig()
	cfg.MiningInterval = *miningInterval
	cfg.MaintenanceInterval = *maintainInterval
	cfg.Profiler.CaptureParseErrors = *captureParseErrs
	if *dataDir != "" {
		cfg.Durability = wal.DefaultConfig(*dataDir)
		cfg.Durability.SyncPolicy = *syncPolicy
		cfg.Durability.SegmentBytes = *segmentBytes
		cfg.Durability.SnapshotEvery = *snapshotEvery
	}
	var cqms *core.CQMS
	var err error
	if *follow != "" {
		if *dataDir != "" {
			log.Fatalf("-follow is incompatible with -data-dir: a follower keeps no local log")
		}
		if *replayUsers > 0 {
			log.Printf("skipping trace replay: a follower's query log comes from the primary")
			*replayUsers = 0
		}
		// The replication stream is admin-gated; the snapshot transfer can
		// outlast the default client timeout, so give it a generous one.
		source := client.New(*follow, client.WithAdmin(),
			client.WithHTTPClient(&http.Client{Timeout: 2 * time.Minute}))
		cqms, err = core.OpenFollower(eng, cfg, source)
	} else {
		cqms, err = core.OpenWithEngine(eng, cfg)
	}
	if err != nil {
		log.Fatalf("opening CQMS: %v", err)
	}
	if rec := cqms.Recovery(); rec != nil {
		log.Printf("recovered durable query log from %s: %d queries (payload format %d; snapshot seq %d: %d records in %d frames; %d WAL records replayed, torn tail: %v)",
			*dataDir, rec.Queries, rec.PayloadFormat, rec.SnapshotSeq, rec.SnapshotRecords, rec.SnapshotFrames, rec.Replayed, rec.TornTail)
	}

	// Recovered data is served as soon as recovery ends: every derived state
	// came back with the log, and the miner feed derives its rules on first
	// read. Don't layer a fresh synthetic trace on top of it.
	if n := cqms.Store().Count(); n > 0 && *replayUsers > 0 {
		log.Printf("skipping trace replay: data directory already holds %d queries", n)
		*replayUsers = 0
	}
	if *replayUsers > 0 {
		wcfg := workload.DefaultConfig()
		wcfg.Seed = *seed
		wcfg.Users = *replayUsers
		wcfg.SessionsPerUser = *replaySessions
		trace := workload.Generate(wcfg)
		log.Printf("replaying %d synthetic queries from %d users", len(trace.Queries), *replayUsers)
		prof := profiler.New(eng, cqms.Store(), cfg.Profiler)
		if failures, err := workload.Replay(trace, prof); err != nil {
			log.Fatalf("replaying trace: %v", err)
		} else if failures > 0 {
			log.Printf("warning: %d replayed queries failed to execute", failures)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cqms.StartBackground(ctx)
	if *follow != "" {
		if err := cqms.StartFollower(ctx); err != nil {
			log.Fatalf("starting replication: %v", err)
		}
		log.Printf("replicating from primary %s", *follow)
	}

	// The middleware chain (request IDs, panic recovery, metrics, access and
	// slow-request logging) lives in the server package; the timeouts guard
	// the listener itself. Slow-request logging needs a logger, so -access-log
	// false also silences it.
	var srvOpts []server.Option
	if *accessLog {
		srvOpts = append(srvOpts, server.WithLogger(log.Default()))
	}
	if *slowRequest > 0 {
		srvOpts = append(srvOpts, server.WithSlowRequests(*slowRequest))
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.New(cqms, srvOpts...).Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	log.Printf("CQMS server listening on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("server: %v", err)
	}
	// Flush the durable log before exiting so every acknowledged mutation is
	// on disk.
	if err := cqms.Close(); err != nil {
		log.Printf("warning: closing durable query log: %v", err)
	}
	log.Printf("CQMS server stopped")
}
