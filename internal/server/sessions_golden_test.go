package server_test

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/profiler"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/workload"
)

// sessionBodies serves a fixed in-order history — every record at or behind
// nothing but its own user's tail, which is all the predecessor's fast path
// handled without reissuing IDs — and returns the raw bodies of the session
// listing, page by page, for three principals, and of every session graph.
func sessionBodies(t *testing.T) string {
	t.Helper()
	eng := engine.New()
	if err := workload.Populate(eng, 200, 1); err != nil {
		t.Fatalf("Populate: %v", err)
	}
	cqms := core.NewWithEngine(eng, core.DefaultConfig())
	texts := []string{
		"SELECT * FROM WaterTemp WHERE temp < 22",
		"SELECT * FROM WaterTemp, WaterSalinity WHERE temp < 22",
		"SELECT * FROM WaterTemp, WaterSalinity WHERE temp < 10",
		"SELECT lake, temp FROM WaterTemp WHERE temp < 18",
		"SELECT lake FROM WaterTemp WHERE temp < 18 AND lake = 'Lake Union'",
		"SELECT city FROM CityLocations WHERE state = 'WA'",
		"SELECT city, state FROM CityLocations",
		"SELECT salinity FROM WaterSalinity WHERE salinity > 3",
	}
	users := []string{"alice", "bob", "carol"}
	groups := []string{"limnology", "", "hydrology"}
	gaps := []time.Duration{20 * time.Second, 20 * time.Second, 20 * time.Second, time.Minute, time.Minute, 3 * time.Minute, 6 * time.Minute, 40 * time.Minute}
	clock := time.Date(2009, 1, 5, 9, 0, 0, 0, time.UTC)
	for i, x := 0, uint32(7); i < 120; i++ {
		x = x*1664525 + 1013904223 // the same draws on every build
		clock = clock.Add(gaps[(x>>8)%8])
		_, err := cqms.Submit(profiler.Submission{
			User: users[(x>>12)%3], Group: groups[(x>>16)%3], Visibility: storage.Visibility((x >> 20) % 3),
			SQL: texts[(x>>24)%8], IssuedAt: clock,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	cqms.RunMiner()
	ts := httptest.NewServer(server.New(cqms).Handler())
	defer ts.Close()

	var doc strings.Builder
	get := func(path string, headers ...string) string {
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(headers); i += 2 {
			req.Header.Set(headers[i], headers[i+1])
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&doc, "GET %s %v -> %d\n%s\n", path, headers, resp.StatusCode, body)
		return string(body)
	}
	for _, who := range [][]string{
		{"X-CQMS-User", "root", "X-CQMS-Admin", "true"},
		{"X-CQMS-User", "alice", "X-CQMS-Groups", "limnology"},
		{"X-CQMS-User", "eve", "X-CQMS-Groups", "hydrology"},
	} {
		for cursor := ""; ; {
			body := get("/v1/sessions?limit=4"+cursor, who...)
			_, next, ok := strings.Cut(body, `"nextCursor":"`)
			if !ok {
				break
			}
			cursor = "&cursor=" + next[:strings.IndexByte(next, '"')]
		}
	}
	for id := 1; id <= int(cqms.Store().HighWater())+1; id++ { // IDs that name no session: not_found
		get(fmt.Sprintf("/v1/sessions/%d/graph", id), "X-CQMS-User", "root", "X-CQMS-Admin", "true")
		get(fmt.Sprintf("/v1/sessions/%d/graph", id), "X-CQMS-User", "eve", "X-CQMS-Groups", "hydrology")
	}
	return doc.String()
}

// TestSessionBodiesMatchParentGolden holds the read side to its predecessor:
// for an in-order history the bodies of GET /v1/sessions and
// GET /v1/sessions/{id}/graph are what commit faeed8d served, when sessions
// kept their labelled edges in memory and a listing walked every query.
// testdata/parent_sessions.golden was written by that commit running
// sessionBodies; it is not regenerated. The one intended difference is the
// session IDs: that build numbered sessions in order of creation, this one
// names each by its lowest query ID. So the golden's IDs are mapped to the
// lowest query its graph shows, and both sides are compared in the form
// sessionsCanonical gives them: every body byte for byte but for its IDs, and
// each listing as the concatenation of its pages, whose cursors name IDs.
func TestSessionBodiesMatchParentGolden(t *testing.T) {
	b, err := os.ReadFile("testdata/parent_sessions.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := sessionBodies(t)
	if strings.Count(got, "GET /v1/sessions?") < 12 || strings.Count(got, `\n     |  `) < 60 || !strings.Contains(got, "permission_denied") {
		t.Fatalf("the history no longer covers paging, labelled edges and refusals:\n%s", got)
	}
	got = sessionsCanonical(t, got, nil)
	want := sessionsCanonical(t, string(b), lowestQueryOfSession(string(b)))
	if got != want {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("session bodies differ from the parent's at byte %d\n   now: …%.300s\nparent: …%.300s", i, got[max(0, i-80):], want[max(0, i-80):])
	}
}

// The helpers below are the twins of internal/core's compat_test.go, which
// holds that package's goldens to the same rule.
var (
	// goldenEntry is one request of a bodies document and what it answered.
	goldenEntry = regexp.MustCompile(`(?m)^GET (\S+) (\[[^\]]*\]) -> (\d+)\n(.*)$`)
	graphPath   = regexp.MustCompile(`^/v1/sessions/(\d+)/graph$`)
	graphNode   = regexp.MustCompile(`\(q(\d+)\)`)
)

// lowestQueryOfSession maps each session ID a document shows a graph of to the
// lowest query ID among the graph's nodes.
func lowestQueryOfSession(doc string) map[int64]int64 {
	lowest := map[int64]int64{}
	for _, m := range goldenEntry.FindAllStringSubmatch(doc, -1) {
		g := graphPath.FindStringSubmatch(m[1])
		if g == nil || m[3] != "200" {
			continue
		}
		id, _ := strconv.ParseInt(g[1], 10, 64)
		for _, n := range graphNode.FindAllStringSubmatch(m[4], -1) {
			q, _ := strconv.ParseInt(n[1], 10, 64)
			if cur, ok := lowest[id]; !ok || q < cur {
				lowest[id] = q
			}
		}
	}
	return lowest
}

// sessionsCanonical rewrites a bodies document into a form that does not
// depend on where listing pages are cut: every session ID renamed through
// rename (nil: kept), each principal's listing as the concatenation of its
// pages in ascending ID order, one session a line, then every graph that
// exists (not 404) in ascending ID order. Every other body is kept in place,
// its sessionId renamed.
func sessionsCanonical(t *testing.T, doc string, rename map[int64]int64) string {
	t.Helper()
	name := func(id int64) int64 {
		if rename == nil {
			return id
		}
		to, ok := rename[id]
		if !ok {
			t.Fatalf("the golden names session %d but shows no graph of it", id)
		}
		return to
	}
	renameAfter := func(prefix, body string) string {
		re := regexp.MustCompile(regexp.QuoteMeta(prefix) + `(\d+)`)
		return re.ReplaceAllStringFunc(body, func(s string) string {
			id, _ := strconv.ParseInt(s[len(prefix):], 10, 64)
			return prefix + strconv.FormatInt(name(id), 10)
		})
	}
	type item struct {
		id  int64
		raw string
	}
	var out strings.Builder
	var principals []string
	listings := map[string][]item{}
	var graphs []item
	for _, m := range goldenEntry.FindAllStringSubmatch(doc, -1) {
		path, who, status, body := m[1], m[2], m[3], m[4]
		switch g := graphPath.FindStringSubmatch(path); {
		case strings.HasPrefix(path, "/v1/sessions?"):
			var page struct{ Sessions []json.RawMessage }
			if err := json.Unmarshal([]byte(body), &page); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if _, ok := listings[who]; !ok {
				principals = append(principals, who)
				listings[who] = nil
			}
			for _, raw := range page.Sessions {
				var s struct{ ID int64 }
				if err := json.Unmarshal(raw, &s); err != nil {
					t.Fatal(err)
				}
				listings[who] = append(listings[who], item{name(s.ID), renameAfter(`{"id":`, string(raw))})
			}
		case g != nil:
			if status == "404" {
				continue
			}
			id, _ := strconv.ParseInt(g[1], 10, 64)
			graphs = append(graphs, item{name(id), fmt.Sprintf("graph %d %s -> %s\n%s\n", name(id), who, status, renameAfter("Session ", body))})
		default:
			fmt.Fprintf(&out, "GET %s %s -> %s\n%s\n", path, who, status, renameAfter(`"sessionId":`, body))
		}
	}
	byID := func(a, b item) int { return cmp.Compare(a.id, b.id) }
	for _, who := range principals {
		fmt.Fprintf(&out, "sessions %s\n", who)
		slices.SortStableFunc(listings[who], byID)
		for _, s := range listings[who] {
			fmt.Fprintf(&out, "%s\n", s.raw)
		}
	}
	slices.SortStableFunc(graphs, byID)
	for _, g := range graphs {
		out.WriteString(g.raw)
	}
	return out.String()
}
