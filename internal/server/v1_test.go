package server_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/profiler"
	"repro/internal/server"
	"repro/internal/storage"
)

// doRaw sends a raw request and decodes the JSON body into out (when out is
// non-nil), returning the response for header/status assertions.
func doRaw(t *testing.T, method, url string, headers map[string]string, body string, out interface{}) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding body: %v", method, url, err)
		}
	}
	return resp
}

func decodeEnvelope(t *testing.T, resp *http.Response) server.ErrorResponse {
	t.Helper()
	var envelope server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	return envelope
}

func TestV1ErrorEnvelopeCodes(t *testing.T) {
	ts, alice, _, _ := newTestServer(t)
	aliceHeaders := map[string]string{server.HeaderUser: "alice", server.HeaderGroups: "limnology"}

	// Unknown route: 404 with a JSON envelope, not net/http's HTML.
	resp := doRaw(t, http.MethodGet, ts.URL+"/v1/nope", nil, "", nil)
	if resp.StatusCode != 404 || !strings.Contains(resp.Header.Get("Content-Type"), "json") {
		t.Fatalf("unknown route: status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != server.CodeNotFound {
		t.Fatalf("unknown route code = %q", env.Error.Code)
	}

	// Method mismatch: 405 envelope with the Allow header set.
	resp = doRaw(t, http.MethodGet, ts.URL+"/v1/queries", nil, "", nil)
	if resp.StatusCode != 405 {
		t.Fatalf("GET /v1/queries status = %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Fatalf("Allow = %q", allow)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != server.CodeMethodNotAllowed {
		t.Fatalf("405 code = %q", env.Error.Code)
	}

	// Missing query: not_found.
	resp = doRaw(t, http.MethodGet, ts.URL+"/v1/queries/99999", aliceHeaders, "", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("missing query status = %d", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != server.CodeNotFound {
		t.Fatalf("missing query code = %q", env.Error.Code)
	}

	// Unparsable SQL: invalid_argument.
	resp = doRaw(t, http.MethodPost, ts.URL+"/v1/queries", aliceHeaders, `{"sql":"SELEKT"}`, nil)
	if resp.StatusCode != 400 {
		t.Fatalf("bad SQL status = %d", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != server.CodeInvalidArgument {
		t.Fatalf("bad SQL code = %q", env.Error.Code)
	}

	// Foreign visibility change: permission_denied.
	sub, err := alice.Submit(ctx, "SELECT lake FROM WaterTemp", client.Group("limnology"))
	if err != nil {
		t.Fatal(err)
	}
	resp = doRaw(t, http.MethodPut, fmt.Sprintf("%s/v1/queries/%d/visibility", ts.URL, sub.QueryID),
		map[string]string{server.HeaderUser: "mallory"}, `{"visibility":"public"}`, nil)
	if resp.StatusCode != 403 {
		t.Fatalf("foreign visibility status = %d", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != server.CodePermissionDenied {
		t.Fatalf("foreign visibility code = %q", env.Error.Code)
	}

	// Malformed cursor: invalid_argument.
	resp = doRaw(t, http.MethodGet, ts.URL+"/v1/history?cursor=%21%21garbage", aliceHeaders, "", nil)
	if env := decodeEnvelope(t, resp); resp.StatusCode != 400 || env.Error.Code != server.CodeInvalidArgument {
		t.Fatalf("garbage cursor: status %d code %q", resp.StatusCode, env.Error.Code)
	}

	// A cursor minted by another endpoint family is rejected.
	if _, err := alice.Submit(ctx, "SELECT temp FROM WaterTemp", client.Group("limnology")); err != nil {
		t.Fatal(err)
	}
	var page server.SearchResponse
	resp = doRaw(t, http.MethodPost, ts.URL+"/v1/search/keyword", aliceHeaders, `{"keywords":["watertemp"],"limit":1}`, &page)
	if resp.StatusCode != 200 {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	if page.NextCursor == "" {
		t.Fatal("two matches with limit 1 must mint a next cursor")
	}
	resp = doRaw(t, http.MethodGet, ts.URL+"/v1/history?cursor="+page.NextCursor, aliceHeaders, "", nil)
	if env := decodeEnvelope(t, resp); resp.StatusCode != 400 || env.Error.Code != server.CodeInvalidArgument {
		t.Fatalf("cross-endpoint cursor: status %d code %q", resp.StatusCode, env.Error.Code)
	}
}

func TestV1DecodeHardening(t *testing.T) {
	ts, _, _, _ := newTestServer(t)
	headers := map[string]string{server.HeaderUser: "alice"}

	// Unknown fields fail loudly instead of being silently dropped.
	resp := doRaw(t, http.MethodPost, ts.URL+"/v1/queries", headers,
		`{"sql":"SELECT lake FROM WaterTemp","nonsense":true}`, nil)
	if env := decodeEnvelope(t, resp); resp.StatusCode != 400 || env.Error.Code != server.CodeInvalidArgument {
		t.Fatalf("unknown field: status %d code %q", resp.StatusCode, env.Error.Code)
	}

	// Trailing garbage after the JSON value is rejected.
	resp = doRaw(t, http.MethodPost, ts.URL+"/v1/queries", headers,
		`{"sql":"SELECT lake FROM WaterTemp"}{"again":1}`, nil)
	if env := decodeEnvelope(t, resp); resp.StatusCode != 400 || env.Error.Code != server.CodeInvalidArgument {
		t.Fatalf("trailing garbage: status %d code %q", resp.StatusCode, env.Error.Code)
	}

	// Oversized bodies map to payload_too_large.
	huge := `{"sql":"` + strings.Repeat("x", 2<<20) + `"}`
	resp = doRaw(t, http.MethodPost, ts.URL+"/v1/queries", headers, huge, nil)
	if env := decodeEnvelope(t, resp); resp.StatusCode != http.StatusRequestEntityTooLarge ||
		env.Error.Code != server.CodePayloadTooLarge {
		t.Fatalf("oversized body: status %d code %q", resp.StatusCode, env.Error.Code)
	}
}

func TestV1HeaderPrincipalParsing(t *testing.T) {
	ts, _, _, _ := newTestServer(t)

	// Submit a group-visible query as alice.
	resp := doRaw(t, http.MethodPost, ts.URL+"/v1/queries",
		map[string]string{server.HeaderUser: "alice", server.HeaderGroups: " limnology , fieldwork "},
		`{"sql":"SELECT lake FROM WaterTemp","visibility":"group"}`, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}

	// A member of the same group (messy header spacing) sees it.
	var found server.SearchResponse
	resp = doRaw(t, http.MethodPost, ts.URL+"/v1/search/keyword",
		map[string]string{server.HeaderUser: "bob", server.HeaderGroups: "limnology"},
		`{"keywords":["watertemp"]}`, &found)
	if resp.StatusCode != 200 || len(found.Matches) != 1 {
		t.Fatalf("group member search: status %d matches %d", resp.StatusCode, len(found.Matches))
	}

	// A stranger does not.
	var hidden server.SearchResponse
	doRaw(t, http.MethodPost, ts.URL+"/v1/search/keyword",
		map[string]string{server.HeaderUser: "mallory"},
		`{"keywords":["watertemp"]}`, &hidden)
	if len(hidden.Matches) != 0 {
		t.Fatalf("stranger sees %d matches", len(hidden.Matches))
	}

	// X-CQMS-Admin: 1 grants the admin bypass.
	var asAdmin server.SearchResponse
	doRaw(t, http.MethodPost, ts.URL+"/v1/search/keyword",
		map[string]string{server.HeaderUser: "ops", server.HeaderAdmin: "1"},
		`{"keywords":["watertemp"]}`, &asAdmin)
	if len(asAdmin.Matches) != 1 {
		t.Fatalf("admin header ignored: %d matches", len(asAdmin.Matches))
	}
}

// TestV1SearchPaginationStable pages a keyword search one item at a time
// while new matching queries are submitted between pages: the listing must
// return exactly the first page's snapshot membership, no duplicates, no
// gaps.
func TestV1SearchPaginationStable(t *testing.T) {
	ts, alice, _, _ := newTestServer(t)
	const initial = 9
	for i := 0; i < initial; i++ {
		if _, err := alice.Submit(ctx, "SELECT lake FROM WaterTemp", client.Group("limnology")); err != nil {
			t.Fatal(err)
		}
	}
	headers := map[string]string{server.HeaderUser: "alice", server.HeaderGroups: "limnology"}

	seen := map[int64]bool{}
	cursor := ""
	pages := 0
	for {
		body := `{"keywords":["watertemp"],"limit":2`
		if cursor != "" {
			body += `,"cursor":"` + cursor + `"`
		}
		body += `}`
		var page server.SearchResponse
		resp := doRaw(t, http.MethodPost, ts.URL+"/v1/search/keyword", headers, body, &page)
		if resp.StatusCode != 200 {
			t.Fatalf("page status = %d", resp.StatusCode)
		}
		if len(page.Matches) > 2 {
			t.Fatalf("page holds %d matches, limit was 2", len(page.Matches))
		}
		for _, m := range page.Matches {
			if seen[m.Query.ID] {
				t.Fatalf("duplicate query %d across pages", m.Query.ID)
			}
			seen[m.Query.ID] = true
		}
		// New queries between pages must not leak into this listing.
		if _, err := alice.Submit(ctx, "SELECT lake FROM WaterTemp", client.Group("limnology")); err != nil {
			t.Fatal(err)
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		if pages > 50 {
			t.Fatal("pagination never terminated")
		}
		cursor = page.NextCursor
	}
	if len(seen) != initial {
		t.Fatalf("paginated %d distinct matches, want %d", len(seen), initial)
	}
}

// TestV1SearchRejectsEmptyNeedles is the contract test for empty search
// terms: an empty string is contained in every text, so these requests used
// to list the whole log (or, for no keywords at all, silently nothing). Both
// text searches refuse them with the invalid_argument envelope, and so does a
// query-by-data search naming no example (it used to list every sampled
// query) and a meta-query whose result has no qid column (it used to answer
// an empty page); as do a partial query naming nothing and a similar search
// whose SQL does not parse.
func TestV1SearchRejectsEmptyNeedles(t *testing.T) {
	ts, alice, _, _ := newTestServer(t)
	if _, err := alice.Submit(ctx, "SELECT lake FROM WaterTemp", client.Group("limnology")); err != nil {
		t.Fatal(err)
	}
	headers := map[string]string{server.HeaderUser: "alice", server.HeaderGroups: "limnology"}
	for _, tc := range []struct{ kind, body string }{
		{"substring", `{}`},
		{"substring", `{"substring":""}`},
		{"substring", `{"substring":" \t\n"}`},
		{"keyword", `{}`},
		{"keyword", `{"keywords":[]}`},
		{"keyword", `{"keywords":[""]}`},
		{"keyword", `{"keywords":["lake",""]}`},
		{"bydata", `{}`},
		{"bydata", `{"include":[],"exclude":[]}`},
		{"metaquery", `{"metaSql":"SELECT COUNT(*) FROM Queries"}`},
		{"partial", `{"partial":"SELECT"}`},
		{"similar", `{"sql":"SELEKT broken"}`},
	} {
		resp := doRaw(t, http.MethodPost, ts.URL+"/v1/search/"+tc.kind, headers, tc.body, nil)
		if env := decodeEnvelope(t, resp); resp.StatusCode != 400 || env.Error.Code != server.CodeInvalidArgument {
			t.Errorf("%s %s: status %d code %q, want 400 %s", tc.kind, tc.body, resp.StatusCode, env.Error.Code, server.CodeInvalidArgument)
		} else if tc.kind == "metaquery" && !strings.Contains(env.Error.Message, "qid") {
			t.Errorf("%s %s: message %q does not name the missing qid column", tc.kind, tc.body, env.Error.Message)
		}
	}
	// Terms that merely look empty are searched for: a space is in every
	// statement, a one-byte needle is a needle.
	for _, tc := range []struct{ kind, body string }{
		{"keyword", `{"keywords":[" "]}`},
		{"substring", `{"substring":"k"}`},
	} {
		var page server.SearchResponse
		resp := doRaw(t, http.MethodPost, ts.URL+"/v1/search/"+tc.kind, headers, tc.body, &page)
		if resp.StatusCode != 200 || len(page.Matches) != 1 {
			t.Errorf("%s %s: status %d, %d matches, want the one logged query", tc.kind, tc.body, resp.StatusCode, len(page.Matches))
		}
	}
}

// TestLegacyAPIRetired is the contract test for the retired unversioned
// surface: every /api/* request — any method, any depth, with or without a
// body — gets a structured not_found envelope whose details carry an upgrade
// hint pointing at /v1, and never reaches a handler.
func TestLegacyAPIRetired(t *testing.T) {
	ts, _, _, _ := newTestServer(t)
	cases := []struct {
		method, path, body string
	}{
		{http.MethodPost, "/api/query", `{"principal":{"user":"alice"},"sql":"SELECT lake FROM WaterTemp"}`},
		{http.MethodPost, "/api/search/keyword", `{"principal":{"user":"alice"},"keywords":["salinity"]}`},
		{http.MethodGet, "/api/history?user=alice", ""},
		{http.MethodGet, "/api/sessions?user=alice", ""},
		{http.MethodPost, "/api/complete", `{"principal":{"user":"alice"},"partial":"SELECT"}`},
		{http.MethodPost, "/api/visibility", `{"principal":{"user":"alice"},"queryId":1,"visibility":"public"}`},
		{http.MethodDelete, "/api/delete", ""},
		{http.MethodGet, "/api/", ""},
	}
	admin := client.New(ts.URL, client.WithAdmin())
	before, err := admin.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		resp := doRaw(t, tc.method, ts.URL+tc.path, nil, tc.body, nil)
		env := decodeEnvelope(t, resp)
		if resp.StatusCode != 404 {
			t.Errorf("%s %s status = %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
		if env.Error.Code != server.CodeNotFound {
			t.Errorf("%s %s code = %q, want %q", tc.method, tc.path, env.Error.Code, server.CodeNotFound)
		}
		if hint := env.Error.Details["upgrade"]; !strings.Contains(hint, "/v1") {
			t.Errorf("%s %s upgrade hint = %q, want a pointer to /v1", tc.method, tc.path, hint)
		}
	}
	// The queries the retired routes would have run never executed.
	after, err := admin.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Queries != before.Queries {
		t.Errorf("query count changed %d -> %d after retired-route requests", before.Queries, after.Queries)
	}
}

func TestV1RequestIDEcho(t *testing.T) {
	ts, _, _, _ := newTestServer(t)
	resp := doRaw(t, http.MethodGet, ts.URL+"/v1/stats",
		map[string]string{server.HeaderRequestID: "my-trace-42"}, "", nil)
	if got := resp.Header.Get(server.HeaderRequestID); got != "my-trace-42" {
		t.Fatalf("request id echo = %q", got)
	}
	resp = doRaw(t, http.MethodGet, ts.URL+"/v1/stats", nil, "", nil)
	if got := resp.Header.Get(server.HeaderRequestID); got == "" {
		t.Fatal("no generated request id")
	}
}

func TestV1SessionsPagination(t *testing.T) {
	ts, alice, _, admin := newTestServer(t)
	// Three sessions: bursts separated by > the session gap.
	base := []string{
		"SELECT lake FROM WaterTemp",
		"SELECT salinity FROM WaterSalinity",
		"SELECT city FROM CityLocations",
	}
	for _, q := range base {
		if _, err := alice.Submit(ctx, q, client.Group("limnology")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := admin.Mine(ctx); err != nil {
		t.Fatal(err)
	}
	// Page sessions one at a time through the raw endpoint.
	headers := map[string]string{server.HeaderUser: "root", server.HeaderAdmin: "true"}
	var (
		cursor string
		total  int
		lastID int64 = -1
	)
	for {
		url := ts.URL + "/v1/sessions?limit=1"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		var page server.SessionsResponse
		resp := doRaw(t, http.MethodGet, url, headers, "", &page)
		if resp.StatusCode != 200 {
			t.Fatalf("sessions page status = %d", resp.StatusCode)
		}
		for _, s := range page.Sessions {
			if s.ID <= lastID {
				t.Fatalf("session order regressed: %d after %d", s.ID, lastID)
			}
			lastID = s.ID
			total++
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if total == 0 {
		t.Fatal("no sessions paginated")
	}
}

func TestV1NoUnboundedArrays(t *testing.T) {
	ts, alice, _, _ := newTestServer(t)
	for i := 0; i < 60; i++ {
		if _, err := alice.Submit(ctx, "SELECT lake FROM WaterTemp", client.Group("limnology")); err != nil {
			t.Fatal(err)
		}
	}
	headers := map[string]string{server.HeaderUser: "alice", server.HeaderGroups: "limnology"}
	// Default limit bounds the page even when the client asks for nothing.
	var page server.SearchResponse
	doRaw(t, http.MethodPost, ts.URL+"/v1/search/keyword", headers, `{"keywords":["watertemp"]}`, &page)
	if len(page.Matches) > 50 {
		t.Fatalf("default page holds %d matches, want <= 50", len(page.Matches))
	}
	if page.NextCursor == "" {
		t.Fatal("60 matches with default limit must produce a next cursor")
	}
	var hist server.SearchResponse
	doRaw(t, http.MethodGet, ts.URL+"/v1/history", headers, "", &hist)
	if len(hist.Matches) > 50 || hist.NextCursor == "" {
		t.Fatalf("history page: %d matches, cursor %q", len(hist.Matches), hist.NextCursor)
	}
}

// TestV1SimilarPaginationCapsTotal: the similar search's k caps the listing
// across pages (carried in the cursor), while limit sizes each page.
func TestV1SimilarPaginationCapsTotal(t *testing.T) {
	ts, alice, _, _ := newTestServer(t)
	for i := 0; i < 6; i++ {
		if _, err := alice.Submit(ctx, "SELECT lake, temp FROM WaterTemp WHERE temp < 18", client.Group("limnology")); err != nil {
			t.Fatal(err)
		}
	}
	headers := map[string]string{server.HeaderUser: "alice", server.HeaderGroups: "limnology"}
	body := `{"sql":"SELECT lake, temp FROM WaterTemp WHERE temp < 20","k":4,"limit":2}`
	var total int
	cursor := ""
	for pages := 0; ; pages++ {
		b := body
		if cursor != "" {
			b = strings.TrimSuffix(body, "}") + `,"cursor":"` + cursor + `"}`
		}
		var page server.SearchResponse
		resp := doRaw(t, http.MethodPost, ts.URL+"/v1/search/similar", headers, b, &page)
		if resp.StatusCode != 200 {
			t.Fatalf("similar page status = %d", resp.StatusCode)
		}
		total += len(page.Matches)
		if page.NextCursor == "" {
			break
		}
		if pages > 10 {
			t.Fatal("similar pagination never terminated")
		}
		cursor = page.NextCursor
	}
	if total != 4 {
		t.Fatalf("similar listing returned %d matches across pages, want k=4", total)
	}
}

// TestV1StatsCounters covers the principal-aware incremental counters on
// GET /v1/stats: admins see the whole log, other callers see public queries
// merged with their own.
func TestV1StatsCounters(t *testing.T) {
	_, alice, carol, admin := newTestServer(t)
	if _, err := alice.Submit(ctx, "SELECT temp FROM WaterTemp WHERE temp < 18",
		client.Visibility("public")); err != nil {
		t.Fatal(err)
	}
	if _, err := carol.Submit(ctx, "SELECT city FROM CityLocations",
		client.Visibility("private")); err != nil {
		t.Fatal(err)
	}

	adminStats, err := admin.Stats(ctx)
	if err != nil {
		t.Fatalf("admin Stats: %v", err)
	}
	if adminStats.VisibleQueries != 2 || adminStats.MinedTransactions != 2 {
		t.Errorf("admin visible=%d mined=%d, want 2/2", adminStats.VisibleQueries, adminStats.MinedTransactions)
	}
	if len(adminStats.TableCounts) != 2 || len(adminStats.UserActivity) != 2 {
		t.Errorf("admin tableCounts=%+v userActivity=%+v", adminStats.TableCounts, adminStats.UserActivity)
	}
	if len(adminStats.TopPredicates) == 0 || adminStats.TopPredicates[0].Item != "WaterTemp.temp < 18" {
		t.Errorf("admin topPredicates = %+v", adminStats.TopPredicates)
	}

	// Alice sees only the public query (her own).
	aliceStats, err := alice.Stats(ctx)
	if err != nil {
		t.Fatalf("alice Stats: %v", err)
	}
	if aliceStats.VisibleQueries != 1 || len(aliceStats.TableCounts) != 1 {
		t.Errorf("alice visible=%d tableCounts=%+v, want public only", aliceStats.VisibleQueries, aliceStats.TableCounts)
	}
	if aliceStats.Queries != 2 {
		t.Errorf("alice global queries = %d, want 2 (legacy shape is log-wide)", aliceStats.Queries)
	}

	// Carol sees the public query plus her own private one.
	carolStats, err := carol.Stats(ctx)
	if err != nil {
		t.Fatalf("carol Stats: %v", err)
	}
	if carolStats.VisibleQueries != 2 || len(carolStats.TableCounts) != 2 {
		t.Errorf("carol visible=%d tableCounts=%+v, want public+own", carolStats.VisibleQueries, carolStats.TableCounts)
	}
}

// TestV1MineAndStatsCountOneTransactionSet: a mining pass's transactions and
// /v1/stats' minedTransactions are both the feed's count — logged queries
// with a non-empty feature set — so a logged DDL statement is in neither.
func TestV1MineAndStatsCountOneTransactionSet(t *testing.T) {
	_, alice, _, admin := newTestServer(t)
	for _, q := range []string{
		"SELECT lake FROM WaterTemp",
		"ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature",
	} {
		if _, err := alice.Submit(ctx, q); err != nil {
			t.Fatalf("Submit(%q): %v", q, err)
		}
	}
	mined, err := admin.Mine(ctx)
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	st, err := admin.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Queries != 2 || mined.Transactions != 1 || st.MinedTransactions != 1 {
		t.Errorf("queries=%d mine.transactions=%d stats.minedTransactions=%d, want 2/1/1",
			st.Queries, mined.Transactions, st.MinedTransactions)
	}
}

// TestV1OversizedRecordIsInvalidArgument: a query the batch endpoint's body
// limit lets in but whose record outgrows storage.MaxRecordBytes is refused
// per item with invalid_argument — never acknowledged with an ID — and the
// rest of the batch is logged.
func TestV1OversizedRecordIsInvalidArgument(t *testing.T) {
	ts, alice, _, _ := newTestServer(t)
	ident := strings.Repeat("a", storage.MaxRecordBytes/28)
	giant := "SELECT " + ident + " FROM " + ident + " WHERE " + ident + " = 1 GROUP BY " + ident
	body, err := json.Marshal(server.BatchSubmitRequest{Queries: []server.SubmitParams{
		{SQL: "SELECT lake FROM WaterTemp"}, {SQL: giant},
	}})
	if err != nil || len(body) >= 8<<20 {
		t.Fatalf("a %d-byte body (%v) is not under the endpoint's limit", len(body), err)
	}
	var out server.BatchSubmitResponse
	resp := doRaw(t, http.MethodPost, ts.URL+"/v1/queries:batch",
		map[string]string{server.HeaderUser: "alice", server.HeaderGroups: "limnology"}, string(body), &out)
	if resp.StatusCode != 200 || len(out.Results) != 2 {
		t.Fatalf("status %d, %d results", resp.StatusCode, len(out.Results))
	}
	if out.Results[0].Error != nil || out.Results[0].Result.QueryID == 0 {
		t.Fatalf("the ordinary query: %+v", out.Results[0])
	}
	if e := out.Results[1].Error; e == nil || e.Code != server.CodeInvalidArgument || !strings.Contains(e.Message, "too large") {
		t.Fatalf("the giant query: %+v", out.Results[1])
	}
	if hist, err := drain(alice.History(ctx, "")); err != nil || len(hist) != 1 {
		t.Fatalf("history after the batch: %d queries, %v", len(hist), err)
	}
}

// TestV1StoreRefusalsKeepTheirCodes: what the store itself refuses or could
// not make durable reaches the client under its own code — read_only (403)
// from a read-only store whatever the process's role, unavailable (503) for a
// write that is applied but not durable — on the single routes and per item
// on the batch route, never as invalid_argument or internal.
func TestV1StoreRefusalsKeepTheirCodes(t *testing.T) {
	c := core.New(core.DefaultConfig())
	ts := httptest.NewServer(server.New(c).Handler())
	t.Cleanup(ts.Close)
	alice := map[string]string{server.HeaderUser: "alice"}
	check := func(what string, code server.ErrorCode, status int) {
		t.Helper()
		resp := doRaw(t, http.MethodPost, ts.URL+"/v1/queries", alice, `{"sql":"SELECT 1"}`, nil)
		if env := decodeEnvelope(t, resp); resp.StatusCode != status || env.Error.Code != code {
			t.Errorf("%s: submit answered %d %q, want %d %q", what, resp.StatusCode, env.Error.Code, status, code)
		}
		var batch server.BatchSubmitResponse
		doRaw(t, http.MethodPost, ts.URL+"/v1/queries:batch", alice, `{"queries":[{"sql":"SELECT 1"}]}`, &batch)
		if len(batch.Results) != 1 || batch.Results[0].Error == nil || batch.Results[0].Error.Code != code {
			t.Errorf("%s: batch item = %+v, want code %q", what, batch.Results, code)
		}
		resp = doRaw(t, http.MethodPost, ts.URL+"/v1/queries/1/annotations", alice, `{"text":"note"}`, nil)
		if env := decodeEnvelope(t, resp); resp.StatusCode != status || env.Error.Code != code {
			t.Errorf("%s: annotate answered %d %q, want %d %q", what, resp.StatusCode, env.Error.Code, status, code)
		}
	}

	if _, err := c.Submit(profiler.Submission{User: "alice", SQL: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	c.Store().SetLog(failingLog{})
	check("failing log", server.CodeUnavailable, http.StatusServiceUnavailable)
	c.Store().SetReadOnly(true)
	check("read-only store", server.CodeReadOnly, http.StatusForbidden)
}

// failingLog is a storage.Log whose disk is gone.
type failingLog struct{}

func (failingLog) Append(*storage.Mutation) (uint64, error) { return 0, errors.New("disk gone") }
func (failingLog) WaitDurable(uint64) error                 { return errors.New("disk gone") }

// TestV1HostileStatementIsRefusedNotFatal: the largest statement the submit
// endpoint's body limit admits, made of nothing but parentheses. At the parent
// commit the parser recursed once per parenthesis and the process died of a
// stack overflow, which no recover catches; now the statement is an ordinary
// parse error — invalid_argument on /v1/queries, a per-item error on :batch —
// answered quickly, nothing is logged, and the server answers the next
// request.
func TestV1HostileStatementIsRefusedNotFatal(t *testing.T) {
	ts, alice, _, _ := newTestServer(t)
	headers := map[string]string{server.HeaderUser: "alice", server.HeaderGroups: "limnology"}
	hostile := "SELECT " + strings.Repeat("(", 500_000) + "1" + strings.Repeat(")", 500_000) + " FROM t"
	body, err := json.Marshal(server.SubmitParams{SQL: hostile})
	if err != nil || len(body) >= 1<<20 {
		t.Fatalf("a %d-byte body (%v) is not under the endpoint's limit", len(body), err)
	}
	start := time.Now()
	resp := doRaw(t, http.MethodPost, ts.URL+"/v1/queries", headers, string(body), nil)
	if env := decodeEnvelope(t, resp); resp.StatusCode != 400 || env.Error.Code != server.CodeInvalidArgument ||
		!strings.Contains(env.Error.Message, "nested") {
		t.Fatalf("hostile submit: status %d, %+v", resp.StatusCode, env.Error)
	}

	batch, err := json.Marshal(server.BatchSubmitRequest{Queries: []server.SubmitParams{
		{SQL: "SELECT lake FROM WaterTemp"}, {SQL: hostile}, {SQL: "SELECT 1" + strings.Repeat("+1", 500_000)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var out server.BatchSubmitResponse
	resp = doRaw(t, http.MethodPost, ts.URL+"/v1/queries:batch", headers, string(batch), &out)
	if resp.StatusCode != 200 || len(out.Results) != 3 || out.Results[0].Error != nil {
		t.Fatalf("batch: status %d, %+v", resp.StatusCode, out.Results)
	}
	for _, r := range out.Results[1:] {
		if r.Error == nil || r.Error.Code != server.CodeInvalidArgument || !strings.Contains(r.Error.Message, "nested") {
			t.Fatalf("hostile batch item: %+v", r)
		}
	}
	// Generous: the three refusals take about a second together, a few under
	// the race detector; at the parent one of them alone took minutes.
	if d := time.Since(start); d > time.Minute {
		t.Errorf("refusing the hostile statements took %v", d)
	}

	// Still up, and only the ordinary statement was logged.
	if _, err := alice.Submit(ctx, "SELECT lake FROM WaterTemp WHERE temp < 18"); err != nil {
		t.Fatalf("the next request: %v", err)
	}
	if hist, err := drain(alice.History(ctx, "")); err != nil || len(hist) != 2 {
		t.Fatalf("history: %d queries, %v", len(hist), err)
	}
}
