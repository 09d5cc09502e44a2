package server_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
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
	for id := 1; id <= cqms.SessionCount()+1; id++ { // the last one: not_found
		get(fmt.Sprintf("/v1/sessions/%d/graph", id), "X-CQMS-User", "root", "X-CQMS-Admin", "true")
		get(fmt.Sprintf("/v1/sessions/%d/graph", id), "X-CQMS-User", "eve", "X-CQMS-Groups", "hydrology")
	}
	return doc.String()
}

// TestSessionBodiesMatchParentGolden holds the read side to its predecessor:
// for an in-order history the bodies of GET /v1/sessions and
// GET /v1/sessions/{id}/graph are byte for byte what commit faeed8d served,
// when sessions kept their labelled edges in memory and a listing walked
// every query. testdata/parent_sessions.golden was written by that commit
// running sessionBodies; it is not regenerated.
func TestSessionBodiesMatchParentGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/parent_sessions.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := sessionBodies(t)
	if strings.Count(got, "GET /v1/sessions?") < 12 || strings.Count(got, `\n     |  `) < 60 || !strings.Contains(got, "permission_denied") {
		t.Fatalf("the history no longer covers paging, labelled edges and refusals:\n%s", got)
	}
	if got != string(want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("session bodies differ from the parent's at byte %d\n   now: …%.300s\nparent: …%.300s", i, got[max(0, i-80):], string(want)[max(0, i-80):])
	}
}
