// Command cqmsctl is the command-line CQMS client: it talks to a running
// cqms-server over the v1 API and exposes the four interaction modes of the
// paper from the shell.
//
// Usage:
//
//	cqmsctl -server http://localhost:8080 -user alice -groups limnology <command> [args]
//
// Commands:
//
//	query <sql>                       run a SQL query through the CQMS (Traditional mode)
//	batch <sql>;<sql>;...             submit many queries in one round trip
//	annotate <id> <text>              attach an annotation to a logged query
//	show <id>                         fetch one logged query
//	search <keyword>...               keyword search over the query log
//	metaquery <sql>                   run a SQL meta-query over the feature relations (Figure 1)
//	partial <partial sql>             find queries matching a partially written query
//	bydata <include> [exclude]        query-by-data: value that must / must not appear in output
//	similar <sql>                     k most similar logged queries
//	history [user]                    list logged queries of a user (default: yourself)
//	sessions                          list detected query sessions
//	graph <session id>                render the Figure 2 session window
//	complete <partial sql>            completion suggestions (Figure 3)
//	corrections <sql>                 correction suggestions
//	recommend <sql>                   the Figure 3 similar-queries pane
//	publish <id> <private|group|public>   change a query's visibility
//	delete <id>                       delete a logged query
//	mine                              trigger a mining pass (admin)
//	maintain                          trigger a maintenance scan (admin)
//	log info                          durable query-log state (segments, sequences)
//	log backup                        force a point-in-time snapshot of the query log
//	log compact                       snapshot and prune covered WAL segments
//	stats                             server statistics
//	metrics                           Prometheus metrics exposition
//	proxy status                      capture totals of a cqms-proxy (-server points at its admin address)
//	replication status                replication role, sequences and lag of a primary or follower
//
// The stats, proxy status and replication status commands all lead with the
// same status document (role, applied sequence, uptime), rendered by one
// shared printer.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/client"
	"repro/internal/server"
)

func main() {
	var (
		serverURL = flag.String("server", "http://localhost:8080", "CQMS server URL")
		user      = flag.String("user", os.Getenv("USER"), "acting user")
		groups    = flag.String("groups", "", "comma-separated groups of the acting user")
		admin     = flag.Bool("admin", false, "act as administrator")
		k         = flag.Int("k", 5, "number of suggestions / results where applicable")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var groupList []string
	if *groups != "" {
		groupList = strings.Split(*groups, ",")
	}
	opts := []client.Option{client.WithUser(*user, groupList...)}
	if *admin {
		opts = append(opts, client.WithAdmin())
	}
	c := client.New(*serverURL, opts...)

	// Ctrl-C cancels the request context; the server aborts the in-flight
	// scan instead of finishing work nobody is waiting for.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cmd, rest := args[0], args[1:]
	if err := run(ctx, c, cmd, rest, *k); err != nil {
		log.Fatalf("cqmsctl %s: %v", cmd, err)
	}
}

func run(ctx context.Context, c *client.Client, cmd string, args []string, k int) error {
	switch cmd {
	case "query":
		return cmdQuery(ctx, c, args)
	case "batch":
		return cmdBatch(ctx, c, args)
	case "annotate":
		return cmdAnnotate(ctx, c, args)
	case "show":
		return cmdShow(ctx, c, args)
	case "search":
		return cmdSearch(ctx, c, args)
	case "metaquery":
		return cmdMetaQuery(ctx, c, args)
	case "partial":
		return cmdPartial(ctx, c, args)
	case "bydata":
		return cmdByData(ctx, c, args)
	case "similar":
		return cmdSimilar(ctx, c, args, k)
	case "history":
		return cmdHistory(ctx, c, args)
	case "sessions":
		return cmdSessions(ctx, c)
	case "graph":
		return cmdGraph(ctx, c, args)
	case "complete":
		return cmdComplete(ctx, c, args, k)
	case "corrections":
		return cmdCorrections(ctx, c, args)
	case "recommend":
		return cmdRecommend(ctx, c, args, k)
	case "publish":
		return cmdPublish(ctx, c, args)
	case "delete":
		return cmdDelete(ctx, c, args)
	case "mine":
		return cmdMine(ctx, c)
	case "maintain":
		return cmdMaintain(ctx, c)
	case "log":
		return cmdLog(ctx, c, args)
	case "stats":
		return cmdStats(ctx, c)
	case "metrics":
		return cmdMetrics(ctx, c)
	case "proxy":
		return cmdProxy(ctx, c, args)
	case "replication":
		return cmdReplication(ctx, c, args)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func joined(args []string) string { return strings.Join(args, " ") }

func printSubmitResponse(resp *server.SubmitResponse) {
	if resp.ExecError != "" {
		fmt.Printf("execution error: %s (logged as query %d)\n", resp.ExecError, resp.QueryID)
		return
	}
	fmt.Printf("query %d: %d rows in %.2f ms\n", resp.QueryID, resp.RowCount, resp.ExecMillis)
	if len(resp.Columns) > 0 {
		fmt.Println(strings.Join(resp.Columns, "\t"))
		for _, row := range resp.Rows {
			fmt.Println(strings.Join(row, "\t"))
		}
		if resp.RowCount > len(resp.Rows) {
			fmt.Printf("... (%d more rows)\n", resp.RowCount-len(resp.Rows))
		}
	}
	if resp.SuggestAnnotation {
		fmt.Printf("hint: this query is complex — consider `cqmsctl annotate %d \"...\"`\n", resp.QueryID)
	}
}

func cmdQuery(ctx context.Context, c *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: query <sql>")
	}
	resp, err := c.Submit(ctx, joined(args), client.Visibility("group"))
	if err != nil {
		return err
	}
	printSubmitResponse(resp)
	return nil
}

func cmdBatch(ctx context.Context, c *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: batch <sql>;<sql>;...")
	}
	var queries []server.SubmitParams
	for _, stmt := range strings.Split(joined(args), ";") {
		if stmt = strings.TrimSpace(stmt); stmt != "" {
			queries = append(queries, server.SubmitParams{SQL: stmt, Visibility: "group"})
		}
	}
	if len(queries) == 0 {
		return fmt.Errorf("usage: batch <sql>;<sql>;...")
	}
	resp, err := c.SubmitBatch(ctx, queries)
	if err != nil {
		return err
	}
	for i, res := range resp.Results {
		if res.Error != nil {
			fmt.Printf("[%d] error %s: %s\n", i, res.Error.Code, res.Error.Message)
			continue
		}
		if res.Result.ExecError != "" {
			fmt.Printf("[%d] query %d: execution error: %s\n", i, res.Result.QueryID, res.Result.ExecError)
			continue
		}
		fmt.Printf("[%d] query %d: %d rows in %.2f ms\n", i, res.Result.QueryID, res.Result.RowCount, res.Result.ExecMillis)
	}
	return nil
}

func cmdAnnotate(ctx context.Context, c *client.Client, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: annotate <query id> <text>")
	}
	id, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return fmt.Errorf("invalid query id %q", args[0])
	}
	return c.Annotate(ctx, id, joined(args[1:]))
}

func cmdShow(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: show <query id>")
	}
	id, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return fmt.Errorf("invalid query id %q", args[0])
	}
	q, err := c.GetQuery(ctx, id)
	if err != nil {
		return err
	}
	fmt.Printf("query %d by %s at %s\n%s\n", q.ID, q.User, q.IssuedAt.Format("2006-01-02 15:04"), q.Text)
	for _, a := range q.Annotations {
		fmt.Printf("  note: %s\n", a)
	}
	return nil
}

func printMatches(it *client.Iter[server.MatchDTO], notes bool) error {
	n := 0
	for it.Next() {
		m := it.Item()
		fmt.Printf("[q%-4d %-8s] %s\n", m.Query.ID, m.Query.User, m.Query.Text)
		if notes {
			for _, a := range m.Query.Annotations {
				fmt.Printf("      note: %s\n", a)
			}
		}
		n++
	}
	if err := it.Err(); err != nil {
		return err
	}
	fmt.Printf("%d matching queries\n", n)
	return nil
}

func cmdSearch(ctx context.Context, c *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: search <keyword>...")
	}
	return printMatches(c.SearchKeyword(ctx, args...), true)
}

func cmdMetaQuery(ctx context.Context, c *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: metaquery <sql over Queries/DataSources/Attributes/Predicates>")
	}
	return printMatches(c.MetaQuery(ctx, joined(args)), false)
}

func cmdPartial(ctx context.Context, c *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: partial <partial sql>")
	}
	return printMatches(c.SearchPartial(ctx, joined(args)), false)
}

func cmdByData(ctx context.Context, c *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: bydata <must-include value> [must-exclude value]")
	}
	include := []string{args[0]}
	var exclude []string
	if len(args) > 1 {
		exclude = []string{args[1]}
	}
	return printMatches(c.ByData(ctx, include, exclude), false)
}

func cmdSimilar(ctx context.Context, c *client.Client, args []string, k int) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: similar <sql>")
	}
	it := c.Similar(ctx, joined(args), k)
	for it.Next() {
		m := it.Item()
		fmt.Printf("[%3.0f%%] [q%-4d %-8s] %s\n", m.Score*100, m.Query.ID, m.Query.User, m.Query.Text)
	}
	return it.Err()
}

func cmdHistory(ctx context.Context, c *client.Client, args []string) error {
	of := ""
	if len(args) > 0 {
		of = args[0]
	}
	it := c.History(ctx, of)
	for it.Next() {
		m := it.Item()
		valid := ""
		if !m.Query.Valid {
			valid = " [INVALID]"
		}
		fmt.Printf("[q%-4d %s]%s %s (%d rows, %.2f ms)\n",
			m.Query.ID, m.Query.IssuedAt.Format("2006-01-02 15:04"), valid,
			m.Query.Text, m.Query.ResultRows, m.Query.ExecMillis)
	}
	return it.Err()
}

func cmdSessions(ctx context.Context, c *client.Client) error {
	it := c.Sessions(ctx)
	n := 0
	for it.Next() {
		s := it.Item()
		fmt.Printf("session %-4d %-10s %2d queries  %s — %s  tables: %s\n",
			s.ID, s.User, s.QueryCount,
			s.Start.Format("15:04"), s.End.Format("15:04"),
			strings.Join(s.Tables, ", "))
		n++
	}
	if err := it.Err(); err != nil {
		return err
	}
	fmt.Printf("%d sessions\n", n)
	return nil
}

func cmdGraph(ctx context.Context, c *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: graph <session id>")
	}
	id, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return fmt.Errorf("invalid session id %q", args[0])
	}
	graph, err := c.SessionGraph(ctx, id)
	if err != nil {
		return err
	}
	fmt.Print(graph)
	return nil
}

func cmdComplete(ctx context.Context, c *client.Client, args []string, k int) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: complete <partial sql>")
	}
	completions, err := c.Complete(ctx, joined(args), k)
	if err != nil {
		return err
	}
	for _, comp := range completions {
		fmt.Printf("[%-9s] %-45s %s\n", comp.Kind, comp.Text, comp.Reason)
	}
	return nil
}

func cmdCorrections(ctx context.Context, c *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: corrections <sql>")
	}
	corrections, err := c.Corrections(ctx, joined(args))
	if err != nil {
		return err
	}
	if len(corrections) == 0 {
		fmt.Println("no corrections suggested")
		return nil
	}
	for _, corr := range corrections {
		fmt.Printf("[%-9s] %s -> %s (%s)\n", corr.Kind, corr.Original, corr.Suggestion, corr.Reason)
	}
	return nil
}

func cmdRecommend(ctx context.Context, c *client.Client, args []string, k int) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: recommend <sql>")
	}
	similar, err := c.SimilarQueries(ctx, joined(args), k)
	if err != nil {
		return err
	}
	fmt.Printf("%-7s| %-60s| %-20s| %s\n", "Score", "Query", "Diff", "Annotations")
	for _, s := range similar {
		text := s.Query.Text
		if len(text) > 58 {
			text = text[:55] + "..."
		}
		fmt.Printf("[%3.0f%%] | %-60s| %-20s| %s\n", s.Score*100, text, s.Diff, strings.Join(s.Annotations, "; "))
	}
	return nil
}

func cmdPublish(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: publish <query id> <private|group|public>")
	}
	id, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return fmt.Errorf("invalid query id %q", args[0])
	}
	return c.SetVisibility(ctx, id, args[1])
}

func cmdDelete(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: delete <query id>")
	}
	id, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return fmt.Errorf("invalid query id %q", args[0])
	}
	return c.DeleteQuery(ctx, id)
}

func cmdMine(ctx context.Context, c *client.Client) error {
	resp, err := c.Mine(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("mined %d queries: %d rules, %d sessions\n",
		resp.Transactions, resp.Rules, resp.Sessions)
	return nil
}

func cmdMaintain(ctx context.Context, c *client.Client) error {
	resp, err := c.Maintain(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("scanned %d queries: %d repaired, %d invalidated, %d statistics refreshed\n",
		resp.Checked, len(resp.Repaired), len(resp.Invalidated), resp.StatsRefreshed)
	for _, r := range resp.Repaired {
		fmt.Printf("  repaired   %s\n", r)
	}
	for _, inv := range resp.Invalidated {
		fmt.Printf("  invalidated %s\n", inv)
	}
	return nil
}

func cmdLog(ctx context.Context, c *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: log <info|backup|compact>")
	}
	switch args[0] {
	case "info":
		info, err := c.LogInfo(ctx)
		if err != nil {
			return err
		}
		if !info.Enabled {
			fmt.Println("durability: disabled (server runs in-memory; start it with -data-dir)")
			return nil
		}
		fmt.Printf("data dir:       %s\n", info.Dir)
		fmt.Printf("sync policy:    %s\n", info.SyncPolicy)
		fmt.Printf("payload format: %d (binary)\n", info.PayloadFormat)
		if info.AppendError != "" {
			fmt.Printf("WARNING:        durability broken, mutations are NOT being persisted: %s\n", info.AppendError)
		}
		fmt.Printf("last sequence:  %d\n", info.LastSeq)
		fmt.Printf("snapshot seq:   %d (%d mutations pending)\n", info.SnapshotSeq, info.AppendsSinceSnapshot)
		var total int64
		for _, seg := range info.Segments {
			fmt.Printf("  segment %s  first-seq %-10d %8d bytes\n", seg.Name, seg.FirstSeq, seg.Bytes)
			total += seg.Bytes
		}
		fmt.Printf("%d segments, %d bytes\n", len(info.Segments), total)
		for _, snap := range info.Snapshots {
			if snap.Error != "" {
				fmt.Printf("  snapshot %s  UNREADABLE: %s\n", snap.Name, snap.Error)
				continue
			}
			fmt.Printf("  snapshot %s  seq %-10d %8d records in %d frames, %d bytes\n",
				snap.Name, snap.Seq, snap.Records, snap.Frames, snap.Bytes)
		}
		return nil
	case "backup":
		resp, err := c.LogBackup(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("snapshot covering sequence %d written to %s\n", resp.Seq, resp.Path)
		return nil
	case "compact":
		resp, err := c.LogCompact(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("snapshot covering sequence %d written to %s; %d segments removed\n",
			resp.Seq, resp.Path, resp.RemovedSegments)
		return nil
	default:
		return fmt.Errorf("unknown log subcommand %q (want info, backup or compact)", args[0])
	}
}

func cmdStats(ctx context.Context, c *client.Client) error {
	stats, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("queries:  %d\n", stats.Queries)
	fmt.Printf("users:    %d\n", stats.UserCount)
	fmt.Printf("tables:   %d\n", stats.TableCount)
	fmt.Printf("sessions: %d\n", stats.Sessions)
	// Principal-aware incremental counters (public + the caller's own
	// queries; everything for admins).
	fmt.Printf("visible queries: %d\n", stats.VisibleQueries)
	fmt.Printf("mined transactions: %d\n", stats.MinedTransactions)
	printStatusDoc(stats.Status)
	if len(stats.TableCounts) > 0 {
		fmt.Println("table counts:")
		for _, tc := range stats.TableCounts {
			fmt.Printf("  %-30s %d\n", tc.Item, tc.Count)
		}
	}
	if len(stats.UserActivity) > 0 {
		fmt.Println("user activity:")
		for _, ua := range stats.UserActivity {
			fmt.Printf("  %-30s %d\n", ua.Item, ua.Count)
		}
	}
	if len(stats.TopPredicates) > 0 {
		fmt.Println("top predicates:")
		for _, tp := range stats.TopPredicates {
			fmt.Printf("  %-45s %d\n", tp.Item, tp.Count)
		}
	}
	if a := stats.Approx; a != nil {
		// The listings above come from bounded top-K summaries: listed
		// counts are exact; a non-zero bound means items with true count at
		// or below it may be missing from that listing.
		fmt.Printf("listing summaries: capacity %d/bucket\n", a.Capacity)
		fmt.Printf("  miss bounds: tables<=%d users<=%d predicates<=%d fingerprints<=%d",
			a.TableBound, a.UserBound, a.PredicateBound, a.FingerprintBound)
		if a.TableBound == 0 && a.UserBound == 0 && a.PredicateBound == 0 && a.FingerprintBound == 0 {
			fmt.Printf(" (all listings exact)")
		}
		fmt.Println()
	}
	// The search index reports through /v1/metrics alone; read it there, by
	// the names a dashboard would use.
	if text, err := c.Metrics(ctx); err == nil {
		shapes, trigrams := metricValue(text, "cqms_store_shapes"), metricValue(text, "cqms_search_index_trigrams")
		fmt.Printf("search index: %.0f distinct shapes, %.0f trigrams\n", shapes, trigrams)
		if n := metricValue(text, "cqms_search_examined_records_count"); n > 0 {
			sum := metricValue(text, "cqms_search_examined_records_sum")
			fmt.Printf("  %.0f searches, %.1f records examined per search\n", n, sum/n)
		}
	}
	return nil
}

// metricValue sums the samples of one series name in a Prometheus text
// exposition over all its label sets (the search kinds, say); 0 when absent.
func metricValue(exposition, name string) float64 {
	sum := 0.0
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (!strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{")) {
			continue
		}
		if v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

func cmdMetrics(ctx context.Context, c *client.Client) error {
	text, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}

// cmdProxy talks to a cqms-proxy's admin endpoint; -server must point at the
// proxy's admin address (default :6433), not at a cqms-server.
func cmdProxy(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 1 || args[0] != "status" {
		return fmt.Errorf("usage: proxy status")
	}
	st, err := c.GetProxyStatus(ctx)
	if err != nil {
		return err
	}
	printStatusDoc(server.StatusDocDTO{Role: st.Role, UptimeSeconds: st.UptimeSeconds})
	fmt.Printf("backend:             %s\n", st.Backend)
	fmt.Printf("connections:         %d active, %d total\n", st.ActiveConnections, st.TotalConnections)
	fmt.Printf("statements captured: %d\n", st.StatementsCaptured)
	fmt.Printf("statements dropped:  %d\n", st.StatementsDropped)
	fmt.Printf("submit errors:       %d\n", st.SubmitErrors)
	fmt.Printf("backend dial errors: %d\n", st.BackendDialErrors)
	fmt.Printf("bytes relayed:       %d from clients, %d from backend\n", st.BytesFromClients, st.BytesFromBackend)
	fmt.Printf("capture enabled:     %v\n", st.CaptureEnabled)
	return nil
}

// printStatusDoc renders the status document every status surface shares
// (stats, proxy status, replication status): role, applied WAL sequence and
// uptime.
func printStatusDoc(doc server.StatusDocDTO) {
	fmt.Printf("role:        %s\n", doc.Role)
	fmt.Printf("applied seq: %d\n", doc.AppliedSeq)
	fmt.Printf("uptime:      %.0fs\n", doc.UptimeSeconds)
}

func cmdReplication(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 1 || args[0] != "status" {
		return fmt.Errorf("usage: replication status")
	}
	st, err := c.ReplicationStatus(ctx)
	if err != nil {
		return err
	}
	printStatusDoc(st.StatusDocDTO)
	if st.Primary != "" {
		fmt.Printf("primary:     %s\n", st.Primary)
	}
	fmt.Printf("primary seq: %d\n", st.PrimarySeq)
	fmt.Printf("snapshot seq: %d\n", st.SnapshotSeq)
	fmt.Printf("lag:         %d records", st.LagRecords)
	if st.LagSeconds >= 0 {
		fmt.Printf(", %.1fs", st.LagSeconds)
	} else {
		fmt.Printf(", never caught up")
	}
	fmt.Println()
	if st.Role == "follower" {
		if st.StalenessSeconds >= 0 {
			fmt.Printf("staleness:   <= %.1fs\n", st.StalenessSeconds)
		} else {
			fmt.Printf("staleness:   unknown (still bootstrapping)\n")
		}
	}
	if st.LastError != "" {
		fmt.Printf("last error:  %s\n", st.LastError)
	}
	return nil
}
