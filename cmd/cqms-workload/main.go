// Command cqms-workload generates the synthetic multi-user exploratory query
// traces used by the experiments and prints either a summary or the full
// trace. With -server it replays the trace against a running cqms-server
// through the v1 batch-submit endpoint, so the serving path can be loaded
// from the outside. With -proxy it replays the trace as Postgres
// wire-protocol sessions through a running cqms-proxy (one frontend
// connection per user), exercising the passive-capture path end to end.
//
// With -openloop it instead runs the open-loop Poisson load harness
// (internal/workload/openloop) against the server: mixed
// submit/search/complete/stats traffic from a configurable user population,
// reporting p50/p90/p99 latency and achieved throughput. It runs once per
// arrival rate in -rates, judges each run (no shed arrivals, at most 1 %
// failed, p99 within -slo-p99 when set), names the highest sustainable rate
// and exits 1 when no rate was sustainable, so one run is also its own gate.
//
// Usage:
//
//	cqms-workload -users 20 -sessions 10 -summary
//	cqms-workload -users 5 -sessions 2 -dump
//	cqms-workload -users 5 -sessions 2 -server http://localhost:8080 -batch 100
//	cqms-workload -users 5 -sessions 2 -proxy localhost:6432
//	cqms-workload -openloop -server http://localhost:8080 -population 100000 -rates 500 -duration 30s -json report.json
//	cqms-workload -openloop -server http://localhost:8080 -rates 250,500,1000,2000 -slo-p99 100
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"

	"repro/internal/client"
	"repro/internal/pgwire"
	"repro/internal/server"
	"repro/internal/workload"
	"repro/internal/workload/openloop"
)

func main() {
	ol := openloop.DefaultConfig()
	var (
		users     = flag.Int("users", 20, "number of synthetic users")
		sessions  = flag.Int("sessions", 10, "sessions per user")
		seed      = flag.Int64("seed", 42, "random seed")
		dump      = flag.Bool("dump", false, "print every generated query")
		summary   = flag.Bool("summary", true, "print a workload summary")
		serverURL = flag.String("server", "", "replay the trace against this CQMS server over the v1 API")
		batchSize = flag.Int("batch", 100, "queries per batch-submit round trip when replaying")
		proxyAddr = flag.String("proxy", "", "replay the trace through this cqms-proxy as Postgres wire-protocol sessions")

		openLoop   = flag.Bool("openloop", false, "run the open-loop Poisson load harness against -server instead of replaying a trace")
		population = flag.Int("population", ol.Population, "openloop: number of distinct users issuing traffic")
		rates      = flag.String("rates", fmt.Sprint(ol.Rate), "openloop: comma-separated target arrival rates in requests/second, one run each; exits 1 when none is sustainable")
		duration   = flag.Duration("duration", ol.Duration, "openloop: dispatching window per run")
		skew       = flag.Float64("skew", 0, "openloop: Zipf exponent for user popularity (>1 enables skew; 0 = uniform)")
		inflight   = flag.Int("inflight", ol.MaxInFlight, "openloop: maximum concurrent in-flight requests")
		timeout    = flag.Duration("timeout", ol.Timeout, "openloop: per-request timeout")
		mixSpec    = flag.String("mix", "", "openloop: operation mix as submit=60,search=15,complete=15,stats=10")
		jsonOut    = flag.String("json", "", "openloop: write the array of reports, one per rate, as JSON to this file, - for stdout")
		sloP99     = flag.Float64("slo-p99", 0, "openloop: p99 bound in ms a sustainable run must meet (0 = shed/failures only)")
	)
	flag.Parse()

	if *openLoop {
		if *serverURL == "" {
			log.Fatal("cqms-workload: -openloop requires -server")
		}
		ol.Seed = *seed
		ol.Population = *population
		ol.Duration = *duration
		ol.Skew = *skew
		ol.MaxInFlight = *inflight
		ol.Timeout = *timeout
		if *mixSpec != "" {
			mix, err := parseMix(*mixSpec)
			if err != nil {
				log.Fatalf("cqms-workload: %v", err)
			}
			ol.Mix = mix
		}
		if err := runOpenLoop(ol, *serverURL, *rates, *jsonOut, *sloP99); err != nil {
			log.Fatalf("cqms-workload: %v", err)
		}
		return
	}

	cfg := workload.DefaultConfig()
	cfg.Users = *users
	cfg.SessionsPerUser = *sessions
	cfg.Seed = *seed
	trace := workload.Generate(cfg)

	if *serverURL != "" {
		if err := replayOverHTTP(trace, *serverURL, *batchSize); err != nil {
			log.Fatalf("cqms-workload: replaying to %s: %v", *serverURL, err)
		}
	}
	if *proxyAddr != "" {
		if err := replayOverProxy(trace, *proxyAddr); err != nil {
			log.Fatalf("cqms-workload: replaying through proxy %s: %v", *proxyAddr, err)
		}
	}

	if *dump {
		for _, q := range trace.Queries {
			fmt.Printf("%s\t%s\tsession=%d\ttopic=%s\t%s\n",
				q.IssuedAt.Format("2006-01-02 15:04:05"), q.User, q.SessionID, q.Topic, q.SQL)
		}
	}
	if *summary {
		printSummary(trace)
	}
}

// replayOverHTTP pushes the trace through a running server's batch-submit
// endpoint, batching batchSize queries per round trip. One base client is
// dialled and per-user identities are derived from it with Client.As, so
// every batch reuses the same HTTP connection pool instead of opening a
// fresh connection per user.
func replayOverHTTP(trace *workload.Trace, serverURL string, batchSize int) error {
	if batchSize <= 0 {
		batchSize = 100
	}
	if batchSize > server.MaxBatchQueries {
		batchSize = server.MaxBatchQueries
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Group the trace by user, preserving per-user temporal order.
	byUser := make(map[string][]server.SubmitParams)
	groupOf := make(map[string]string)
	var order []string
	for _, q := range trace.Queries {
		if _, seen := byUser[q.User]; !seen {
			order = append(order, q.User)
			groupOf[q.User] = q.Group
		}
		byUser[q.User] = append(byUser[q.User], server.SubmitParams{
			SQL: q.SQL, Group: q.Group, Visibility: "group",
		})
	}
	base := client.New(serverURL)
	var submitted, failed int
	for _, user := range order {
		c := base.As(user, groupOf[user])
		queries := byUser[user]
		for start := 0; start < len(queries); start += batchSize {
			end := start + batchSize
			if end > len(queries) {
				end = len(queries)
			}
			resp, err := c.SubmitBatch(ctx, queries[start:end])
			if err != nil {
				return err
			}
			for _, res := range resp.Results {
				if res.Error != nil || (res.Result != nil && res.Result.ExecError != "") {
					failed++
				}
				submitted++
			}
		}
	}
	fmt.Printf("replayed %d queries over %s (%d failed)\n", submitted, serverURL, failed)
	return nil
}

// replayOverProxy replays the trace through a cqms-proxy as real
// wire-protocol sessions: one frontend connection per user (the user's group
// becomes the session database, matching the proxy's default principal
// mapping), every query sent as a simple-protocol Query message.
func replayOverProxy(trace *workload.Trace, proxyAddr string) error {
	byUser := make(map[string][]string)
	groupOf := make(map[string]string)
	var order []string
	for _, q := range trace.Queries {
		if _, seen := byUser[q.User]; !seen {
			order = append(order, q.User)
			groupOf[q.User] = q.Group
		}
		byUser[q.User] = append(byUser[q.User], q.SQL)
	}
	var sent, failed int
	for _, user := range order {
		fe, err := pgwire.DialFrontend(proxyAddr, user, groupOf[user])
		if err != nil {
			return fmt.Errorf("dialling as %s: %w", user, err)
		}
		for _, sql := range byUser[user] {
			if err := fe.SimpleQuery(sql); err != nil {
				failed++
			}
			sent++
		}
		if err := fe.Close(); err != nil {
			return fmt.Errorf("closing session of %s: %w", user, err)
		}
	}
	fmt.Printf("replayed %d queries through proxy %s (%d failed)\n", sent, proxyAddr, failed)
	return nil
}

// runOpenLoop runs the open-loop harness once per rate in ratesSpec, prints
// each report and its verdict, and names the highest sustainable rate. It
// writes the reports as a JSON array to jsonOut (when set), and fails when
// no rate was sustainable.
func runOpenLoop(cfg openloop.Config, serverURL, ratesSpec, jsonOut string, sloP99 float64) error {
	sweep, err := parseRates(ratesSpec)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var reports []*openloop.Report
	best := -1.0
	for _, r := range sweep {
		if ctx.Err() != nil {
			break
		}
		cfg.Rate = r
		rep, err := openloop.Run(ctx, serverURL, cfg)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
		fmt.Print(rep.Format())
		if violations := rep.CheckSLO(sloP99); len(violations) == 0 {
			best = r
			fmt.Println("  sustainable: yes")
		} else {
			for _, v := range violations {
				fmt.Printf("  sustainable: no (%s)\n", v)
			}
		}
	}

	if jsonOut != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if jsonOut == "-" {
			_, err = os.Stdout.Write(data)
		} else {
			err = os.WriteFile(jsonOut, data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	if best < 0 {
		return fmt.Errorf("none of the rates %s was sustainable", ratesSpec)
	}
	fmt.Printf("max sustainable rate: %.0f req/s\n", best)
	return nil
}

// parseMix parses "submit=60,search=15,complete=15,stats=10"; omitted
// operations get weight zero.
func parseMix(spec string) (openloop.Mix, error) {
	var m openloop.Mix
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("bad mix entry %q (want op=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad mix weight %q", part)
		}
		switch key {
		case openloop.OpSubmit:
			m.Submit = w
		case openloop.OpSearch:
			m.Search = w
		case openloop.OpComplete:
			m.Complete = w
		case openloop.OpStats:
			m.Stats = w
		default:
			return m, fmt.Errorf("unknown operation %q in mix", key)
		}
	}
	return m, nil
}

func parseRates(spec string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(spec, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad rate %q in -rates", part)
		}
		out = append(out, r)
	}
	return out, nil
}

func printSummary(trace *workload.Trace) {
	topics := map[string]int{}
	for _, q := range trace.Queries {
		topics[q.Topic]++
	}
	fmt.Printf("queries:  %d\n", len(trace.Queries))
	fmt.Printf("users:    %d\n", len(trace.Users))
	fmt.Printf("sessions: %d (mean length %.1f queries)\n",
		trace.Sessions, float64(len(trace.Queries))/float64(trace.Sessions))
	fmt.Println("queries per topic:")
	var names []string
	for t := range topics {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		fmt.Printf("  %-24s %d\n", t, topics[t])
	}
}
