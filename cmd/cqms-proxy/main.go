// Command cqms-proxy is the passive query-log collector: a PostgreSQL
// wire-protocol (v3) man-in-the-middle proxy. Point any Postgres client
// (psql, JDBC, a BI tool) at the proxy instead of the database; the proxy
// splices bytes between client and backend unchanged — same auth, same
// results — while every statement observed on the wire is canonicalised,
// fingerprinted and logged in the CQMS, realising the paper's premise that
// the query log is collected "as a side effect of normal DBMS use".
//
// Capture is fully asynchronous: observed statements enter a bounded queue
// drained in batches, and when the queue is full statements are dropped and
// counted (cqms_proxy_statements_dropped_total) rather than ever delaying
// the proxied session.
//
// Usage:
//
//	# Embedded CQMS (optionally durable with -data-dir):
//	cqms-proxy -listen :6432 -backend db.internal:5432 -data-dir /var/lib/cqms
//
//	# Forward captured statements to a running cqms-server instead:
//	cqms-proxy -listen :6432 -backend db.internal:5432 -server http://cqms:8080
//
//	# Self-contained demo without a real Postgres (in-process fake backend):
//	cqms-proxy -listen :6432 -fake-backend
//	psql "host=localhost port=6432 user=alice dbname=limnology"
//
// The admin endpoint (-admin) serves GET /v1/proxy/status (uptime, active
// connections, captured/dropped totals — `cqmsctl proxy status` reads it)
// and GET /v1/metrics (Prometheus exposition of the cqms_proxy_* families,
// plus the embedded system's families in embedded mode).
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/pgwire"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

func main() {
	var (
		listen      = flag.String("listen", ":6432", "frontend listen address (what psql connects to)")
		backendAddr = flag.String("backend", "", "backend Postgres-protocol address to forward to")
		fakeBackend = flag.Bool("fake-backend", false, "start an in-process fake backend instead of forwarding to a real one (demo mode)")
		adminAddr   = flag.String("admin", ":6433", "admin HTTP address for /v1/proxy/status and /v1/metrics (empty disables)")
		serverURL   = flag.String("server", "", "submit captured statements to this cqms-server over the v1 API instead of an embedded CQMS")
		dataDir     = flag.String("data-dir", "", "embedded mode: durable query-log directory (empty: in-memory)")
		syncPolicy  = flag.String("sync", "interval", "embedded mode WAL fsync policy: always, interval or off")
		queueLen    = flag.Int("queue", 4096, "capture queue length (statements dropped with a counter beyond it)")
		batchSize   = flag.Int("batch", 256, "statements per sink batch")
		flushEvery  = flag.Duration("flush", 100*time.Millisecond, "max time a captured statement waits in a partial batch")
		visibility  = flag.String("visibility", "group", "visibility captured queries are logged with: private, group or public")
		groupFrom   = flag.String("group-from", "database", "CQMS group for captured queries: 'database' (the session's database), or a literal group name")
		dialTimeout = flag.Duration("dial-timeout", 5*time.Second, "backend dial timeout")
	)
	flag.Parse()

	if *backendAddr == "" && !*fakeBackend {
		log.Fatal("cqms-proxy: -backend is required (or use -fake-backend for the demo mode)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *fakeBackend {
		fb, err := pgwire.NewFakeBackend("127.0.0.1:0")
		if err != nil {
			log.Fatalf("cqms-proxy: starting fake backend: %v", err)
		}
		defer fb.Close()
		*backendAddr = fb.Addr()
		log.Printf("in-process fake backend listening on %s", *backendAddr)
	}

	// Principal mapping: the session's startup user is the CQMS user; the
	// group comes from the database name (the paper's shared-database =
	// collaborating-group setting) or a fixed name.
	vis := parseVisibility(*visibility)
	mapper := func(user, database string) pgwire.Identity {
		group := *groupFrom
		if group == "database" {
			group = database
		}
		return pgwire.Identity{User: user, Group: group, Visibility: vis}
	}

	// The sink: embedded CQMS by default, remote cqms-server with -server.
	reg := telemetry.NewRegistry()
	var sink pgwire.Sink
	var embedded *core.CQMS
	if *serverURL != "" {
		base := client.New(*serverURL)
		sink = pgwire.NewClientSink(base, mapper)
		log.Printf("capturing to remote cqms-server at %s", *serverURL)
	} else {
		cfg := core.DefaultConfig()
		// Passive capture must not silently drop what it cannot parse.
		cfg.Profiler.CaptureParseErrors = true
		cfg.Metrics = reg
		if *dataDir != "" {
			cfg.Durability = wal.DefaultConfig(*dataDir)
			cfg.Durability.SyncPolicy = *syncPolicy
		}
		var err error
		embedded, err = core.Open(cfg)
		if err != nil {
			log.Fatalf("cqms-proxy: opening embedded CQMS: %v", err)
		}
		if rec := embedded.Recovery(); rec != nil {
			log.Printf("recovered durable query log from %s: %d queries", *dataDir, rec.Queries)
		}
		sink = &pgwire.CoreSink{CQMS: embedded, Map: mapper}
		embedded.StartBackground(ctx)
		log.Printf("capturing to embedded CQMS (durable: %v)", *dataDir != "")
	}

	proxy := pgwire.NewProxy(sink, pgwire.Config{
		Backend:     *backendAddr,
		DialTimeout: *dialTimeout,
		Capture: pgwire.CaptureConfig{
			Queue: *queueLen, Batch: *batchSize, FlushEvery: *flushEvery,
		},
		Metrics: reg,
	})

	if *adminAddr != "" {
		adminSrv := &http.Server{
			Addr:              *adminAddr,
			Handler:           proxy.AdminHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("admin endpoint on %s (/v1/proxy/status, /v1/metrics)", *adminAddr)
			if err := adminSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("admin endpoint: %v", err)
			}
		}()
		go func() {
			<-ctx.Done()
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = adminSrv.Shutdown(shutdownCtx)
		}()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("cqms-proxy: listen %s: %v", *listen, err)
	}
	log.Printf("proxying %s -> %s", *listen, *backendAddr)
	if err := proxy.Serve(ctx, ln); err != nil && ctx.Err() == nil {
		log.Printf("proxy: %v", err)
	}
	// Drain in-flight sessions and flush the capture queue before exiting.
	proxy.Close()
	if embedded != nil {
		if err := embedded.Close(); err != nil {
			log.Printf("warning: closing durable query log: %v", err)
		}
	}
	st := proxy.Status()
	log.Printf("cqms-proxy stopped: %d connections, %d statements captured, %d dropped",
		st.TotalConnections, st.StatementsCaptured, st.StatementsDropped)
}

// parseVisibility maps the flag onto the storage visibility levels.
func parseVisibility(s string) storage.Visibility {
	switch s {
	case "private":
		return storage.VisibilityPrivate
	case "public":
		return storage.VisibilityPublic
	default:
		return storage.VisibilityGroup
	}
}
