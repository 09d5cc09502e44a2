package server_test

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
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

// metricValue finds one sample in a Prometheus text exposition: the series
// whose name matches and whose label block contains every given k="v" pair.
// The value sits after the last space, so label values holding spaces (route
// patterns) parse fine.
func metricValue(t *testing.T, text, name string, labels map[string]string) (float64, bool) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		id, valStr := line[:i], line[i+1:]
		base := id
		if j := strings.IndexByte(id, '{'); j >= 0 {
			base = id[:j]
		}
		if base != name {
			continue
		}
		match := true
		for k, v := range labels {
			if !strings.Contains(id, fmt.Sprintf("%s=%q", k, v)) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		return val, true
	}
	return 0, false
}

func mustMetric(t *testing.T, text, name string, labels map[string]string) float64 {
	t.Helper()
	v, ok := metricValue(t, text, name, labels)
	if !ok {
		t.Fatalf("metric %s %v not found in exposition", name, labels)
	}
	return v
}

var metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// TestV1MetricsContract checks the exposition's wire contract: the format
// parses line by line and the cross-layer families are present.
func TestV1MetricsContract(t *testing.T) {
	_, alice, _, _ := newTestServer(t)
	if _, err := alice.Submit(ctx, "SELECT lake FROM WaterTemp", client.Group("limnology")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := alice.Similar(ctx, "SELECT lake FROM WaterTemp", 3).All(); err != nil {
		t.Fatalf("Similar: %v", err)
	}
	text, err := alice.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}

	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unexpected comment line %q", line)
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Errorf("sample line without value: %q", line)
			continue
		}
		id := line[:i]
		base := id
		if j := strings.IndexByte(id, '{'); j >= 0 {
			base = id[:j]
		}
		if !metricNameRe.MatchString(base) {
			t.Errorf("invalid metric name in %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Errorf("unparsable value in %q: %v", line, err)
		}
	}

	// One family per layer: HTTP, storage, bus, derived state, assist.
	for _, family := range []string{
		"# TYPE cqms_http_requests_total counter",
		"# TYPE cqms_http_request_seconds histogram",
		"# TYPE cqms_http_in_flight_requests gauge",
		"# TYPE cqms_store_mutations_total counter",
		"# TYPE cqms_store_commit_lock_hold_seconds histogram",
		"# TYPE cqms_engine_execute_seconds histogram",
		"# TYPE cqms_engine_result_rows histogram",
		"# TYPE cqms_bus_callback_seconds histogram",
		"# TYPE cqms_store_subscriber_rebuild_seconds histogram",
		"# TYPE cqms_store_records gauge",
		"# TYPE cqms_store_shapes gauge",
		"# TYPE cqms_store_samples gauge",
		"# TYPE cqms_sessions_live gauge",
		"# TYPE cqms_sessions_edits_total counter",
		"# TYPE cqms_sessions_edge_labels_total counter",
		"# TYPE cqms_assist_seconds histogram",
		"# TYPE cqms_miner_feed_transactions gauge",
		"# TYPE cqms_miner_feed_sets gauge",
		"# TYPE cqms_search_examined_records histogram",
		"# TYPE cqms_stats_owner_buckets gauge",
		"# TYPE cqms_stats_owner_buckets_built gauge",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition is missing %q", family)
		}
	}

	if put := mustMetric(t, text, "cqms_store_mutations_total", map[string]string{"op": "put"}); put < 1 {
		t.Errorf("cqms_store_mutations_total{op=put} = %v, want >= 1", put)
	}
	for _, sub := range []string{"wal", "stats", "miner-feed", "sessions"} {
		if n := mustMetric(t, text, "cqms_bus_callback_seconds_count", map[string]string{"subscriber": sub}); sub != "wal" && n < 1 {
			t.Errorf("cqms_bus_callback_seconds_count{subscriber=%s} = %v, want >= 1", sub, n)
		}
	}
	// Each derived-state subscriber rebuilt once, when it attached to the
	// empty store; no snapshot was restored.
	for _, sub := range []string{"stats", "miner-feed", "sessions"} {
		if n := mustMetric(t, text, "cqms_store_subscriber_rebuild_seconds_count", map[string]string{"subscriber": sub}); n != 1 {
			t.Errorf("cqms_store_subscriber_rebuild_seconds_count{subscriber=%s} = %v, want 1", sub, n)
		}
	}
	// The one submission was an append to its user's stream, and committing it
	// labelled no edge; reading its session's graph is what labels.
	if n := mustMetric(t, text, "cqms_sessions_edits_total", map[string]string{"kind": "append"}); n != 1 {
		t.Errorf("cqms_sessions_edits_total{kind=append} = %v, want 1", n)
	}
	if n := mustMetric(t, text, "cqms_miner_feed_sets", nil); n != 1 {
		t.Errorf("cqms_miner_feed_sets = %v, want 1 (one distinct feature set)", n)
	}
	if strings.Contains(text, "cqms_miner_feed_retired") {
		t.Error("exposition still carries cqms_miner_feed_retired")
	}
	if n := mustMetric(t, text, "cqms_sessions_edge_labels_total", nil); n != 0 {
		t.Errorf("cqms_sessions_edge_labels_total = %v after a write, want 0", n)
	}
	if n := mustMetric(t, text, "cqms_store_commit_lock_hold_seconds_count", nil); n < 1 {
		t.Errorf("commit lock hold count = %v, want >= 1", n)
	}
	// Every search kind reports what its page loaded: the similar search scored
	// the one visible query, and no keyword search ran.
	if n := mustMetric(t, text, "cqms_search_examined_records_sum", map[string]string{"kind": "similar"}); n != 1 {
		t.Errorf("cqms_search_examined_records_sum{kind=similar} = %v, want 1", n)
	}
	if n := mustMetric(t, text, "cqms_search_examined_records_count", map[string]string{"kind": "keyword"}); n != 0 {
		t.Errorf("cqms_search_examined_records_count{kind=keyword} = %v, want 0", n)
	}
	// The one submission ran in the engine and returned newTestServer's rows.
	if n := mustMetric(t, text, "cqms_engine_execute_seconds_count", nil); n != 1 {
		t.Errorf("engine execute count = %v, want 1", n)
	}
	if rows := mustMetric(t, text, "cqms_engine_result_rows_sum", nil); rows < 1 {
		t.Errorf("engine result rows sum = %v, want the submitted query's cardinality", rows)
	}

	// The same statement again, over unchanged data: the profiler's memo
	// answers it, and the engine does not run a second time.
	if _, err := alice.Submit(ctx, "SELECT lake FROM WaterTemp", client.Group("limnology")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if text, err = alice.Metrics(ctx); err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, family := range []string{"# TYPE cqms_profiler_memo_total counter", "# TYPE cqms_profiler_memo_bytes gauge"} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition is missing %q", family)
		}
	}
	if n := mustMetric(t, text, "cqms_profiler_memo_total", map[string]string{"outcome": "hit"}); n < 1 {
		t.Errorf("cqms_profiler_memo_total{outcome=hit} = %v after a repeat, want >= 1", n)
	}
	if n := mustMetric(t, text, "cqms_profiler_memo_bytes", nil); n <= 0 {
		t.Errorf("cqms_profiler_memo_bytes = %v with an answer memoized, want > 0", n)
	}
	if n := mustMetric(t, text, "cqms_engine_execute_seconds_count", nil); n != 1 {
		t.Errorf("engine execute count = %v after a memo hit, want 1", n)
	}
}

// TestPartialPageCostsOnePage: a partial-query page streams the log from its
// cursor and stops when the page is full. On a log where every record
// matches, a page of 10 loads the 11 records that fill it and say whether
// another page exists, however long the log is.
func TestPartialPageCostsOnePage(t *testing.T) {
	ts, alice, _, admin := newTestServer(t)
	const logged = 200
	batch := make([]server.SubmitParams, logged)
	for i := range batch {
		batch[i] = server.SubmitParams{SQL: fmt.Sprintf("SELECT lake, temp FROM WaterTemp WHERE temp < %d", i)}
	}
	if _, err := alice.SubmitBatch(ctx, batch); err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	headers := map[string]string{server.HeaderUser: "alice", server.HeaderGroups: "limnology"}
	var page server.SearchResponse
	resp := doRaw(t, http.MethodPost, ts.URL+"/v1/search/partial", headers, `{"partial":"SELECT temp FROM WaterTemp WHERE","limit":10}`, &page)
	if resp.StatusCode != http.StatusOK || len(page.Matches) != 10 || page.NextCursor == "" {
		t.Fatalf("status %d, %d matches, next cursor %q; want a full page of 10 and a next one", resp.StatusCode, len(page.Matches), page.NextCursor)
	}
	text, err := admin.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	partial := map[string]string{"kind": "partial"}
	if n := mustMetric(t, text, "cqms_search_examined_records_count", partial); n != 1 {
		t.Fatalf("cqms_search_examined_records_count{kind=partial} = %v, want 1", n)
	}
	if n := mustMetric(t, text, "cqms_search_examined_records_sum", partial); n > 11 {
		t.Errorf("a page of 10 examined %v of %d records, want <= 11", n, logged)
	}
}

// TestMetricsMoveEndToEnd drives a durable system over HTTP and checks the
// instruments across every layer moved: HTTP route counters, store mutation
// counters, WAL append/fsync series and the assist latency histogram.
func TestMetricsMoveEndToEnd(t *testing.T) {
	eng := engine.New()
	if err := workload.Populate(eng, 100, 1); err != nil {
		t.Fatalf("Populate: %v", err)
	}
	cfg := core.DefaultConfig()
	cfg.Durability = wal.DefaultConfig(t.TempDir())
	cfg.Durability.SyncPolicy = "always"
	cqms, err := core.OpenWithEngine(eng, cfg)
	if err != nil {
		t.Fatalf("OpenWithEngine: %v", err)
	}
	defer cqms.Close()
	ts := httptest.NewServer(server.New(cqms).Handler())
	defer ts.Close()
	alice := client.New(ts.URL, client.WithUser("alice", "limnology"))
	admin := client.New(ts.URL, client.WithUser("root"), client.WithAdmin())

	if _, err := alice.Submit(ctx, "SELECT lake, temp FROM WaterTemp WHERE temp < 20", client.Group("limnology")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := alice.Complete(ctx, "SELECT temp FROM", 5); err != nil {
		t.Fatalf("Complete: %v", err)
	}

	text, err := admin.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	checks := []struct {
		name   string
		labels map[string]string
		min    float64
	}{
		{"cqms_http_requests_total", map[string]string{"route": "POST /v1/queries", "class": "2xx"}, 1},
		{"cqms_http_request_seconds_count", map[string]string{"route": "POST /v1/queries"}, 1},
		{"cqms_http_request_bytes_total", nil, 1},
		{"cqms_http_response_bytes_total", nil, 1},
		{"cqms_store_mutations_total", map[string]string{"op": "put"}, 1},
		{"cqms_store_commit_lock_hold_seconds_count", nil, 1},
		{"cqms_engine_execute_seconds_count", nil, 1},
		{"cqms_engine_result_rows_count", nil, 1},
		{"cqms_bus_callback_seconds_count", map[string]string{"subscriber": "wal"}, 1},
		{"cqms_bus_callback_seconds_count", map[string]string{"subscriber": "stats"}, 1},
		{"cqms_wal_append_seconds_count", nil, 1},
		{"cqms_wal_fsync_seconds_count", nil, 1},
		{"cqms_wal_fsyncs_total", map[string]string{"policy": "always"}, 1},
		{"cqms_wal_segments", nil, 1},
		{"cqms_assist_seconds_count", map[string]string{"op": "complete"}, 1},
		{"cqms_store_records", nil, 1},
		{"cqms_store_shapes", nil, 1},
		{"cqms_store_samples", nil, 1},
	}
	for _, c := range checks {
		if v := mustMetric(t, text, c.name, c.labels); v < c.min {
			t.Errorf("%s %v = %v, want >= %v", c.name, c.labels, v, c.min)
		}
	}
	// The in-flight gauge must count this very scrape.
	if v := mustMetric(t, text, "cqms_http_in_flight_requests", nil); v < 1 {
		t.Errorf("cqms_http_in_flight_requests = %v during a scrape, want >= 1", v)
	}
}

// TestPprofAdminGated checks the pprof subtree rejects non-admin principals
// with the permission_denied envelope and serves admins.
func TestPprofAdminGated(t *testing.T) {
	ts, _, _, _ := newTestServer(t)

	get := func(path string, admin bool) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(server.HeaderUser, "probe")
		if admin {
			req.Header.Set(server.HeaderAdmin, "true")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := get("/v1/admin/debug/pprof/", false)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("non-admin pprof index: status %d, want 403", resp.StatusCode)
	}
	if !strings.Contains(string(body), "permission_denied") {
		t.Errorf("non-admin pprof index body = %q, want permission_denied envelope", body)
	}

	resp = get("/v1/admin/debug/pprof/", true)
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("admin pprof index: status %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Errorf("admin pprof index does not list profiles: %q", body)
	}

	resp = get("/v1/admin/debug/pprof/goroutine?debug=1", true)
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine profile") {
		t.Errorf("admin goroutine profile: status %d body %.80q", resp.StatusCode, body)
	}
}

// TestRecoverSkipsEnvelopeAfterStatus pins the panic-mid-response fix: a
// handler that panics after sending a status must not get a second JSON
// document appended to its half-written body, while a handler that panics
// before writing still gets the internal-error envelope.
func TestRecoverSkipsEnvelopeAfterStatus(t *testing.T) {
	logger := log.New(io.Discard, "", 0)

	late := server.Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"partial":`)
		panic("mid-response")
	}), server.Recover(logger))
	rec := httptest.NewRecorder()
	late.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("status = %d, want the already-sent 200", rec.Code)
	}
	if got := rec.Body.String(); got != `{"partial":` {
		t.Errorf("body = %q, want only the bytes the handler wrote", got)
	}

	early := server.Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("before any write")
	}), server.Recover(logger))
	rec = httptest.NewRecorder()
	early.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal") {
		t.Errorf("body = %q, want the internal-error envelope", rec.Body.String())
	}
}

// TestAccessLogUsesContextPrincipal pins the satellite fix: the access log
// reports the principal installed in the request context, not a re-parse of
// the identity headers.
func TestAccessLogUsesContextPrincipal(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	install := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx := server.WithPrincipal(r.Context(), storage.Principal{User: "from-context"})
			next.ServeHTTP(w, r.WithContext(ctx))
		})
	}
	h := server.Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}), server.Middleware(install), server.AccessLog(logger))

	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	req.Header.Set(server.HeaderUser, "from-header")
	h.ServeHTTP(httptest.NewRecorder(), req)

	if !strings.Contains(buf.String(), `user="from-context"`) {
		t.Errorf("access log = %q, want the context principal", buf.String())
	}
	if strings.Contains(buf.String(), "from-header") {
		t.Errorf("access log = %q, must not re-parse identity headers", buf.String())
	}
}

// TestSlowRequestLog checks the slow-request line fires past the threshold
// and carries the request ID.
func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	h := server.Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}), server.RequestID(), server.SlowRequestLog(logger, time.Millisecond))

	req := httptest.NewRequest(http.MethodGet, "/slow", nil)
	req.Header.Set(server.HeaderRequestID, "req-123")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if !strings.Contains(buf.String(), "slow request") || !strings.Contains(buf.String(), "request=req-123") {
		t.Errorf("slow-request log = %q, want line with request ID", buf.String())
	}

	buf.Reset()
	fast := server.Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), server.RequestID(), server.SlowRequestLog(logger, time.Minute))
	fast.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/fast", nil))
	if buf.Len() != 0 {
		t.Errorf("fast request logged: %q", buf.String())
	}
}
