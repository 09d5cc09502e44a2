package core_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestParentDataDirOpens holds this build to the data directories of the
// build before it, whose mining pass copied the session detector's windows
// into the log. testdata/parent_datadir was written by commit 8ff5dba: a
// snapshot of 40 records carrying session IDs, with the session edges in an
// edge chunk, then a WAL tail of puts, a late put, a deletion and a mining
// pass's assign-session and add-edge records. This build must open it,
// recover every record, and serve the bodies that commit served from the same
// directory — its session listing for three principals, every session graph
// and every query by ID — which testdata/parent_datadir.golden holds; the
// golden is not regenerated.
func TestParentDataDirOpens(t *testing.T) {
	dir := t.TempDir()
	entries, err := os.ReadDir("testdata/parent_datadir")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join("testdata/parent_datadir", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	eng := engine.New()
	if err := workload.Populate(eng, 200, 1); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Durability = wal.DefaultConfig(dir)
	cfg.Durability.SyncPolicy = "off"
	cfg.Durability.SnapshotEvery = 0
	c, err := core.OpenWithEngine(eng, cfg)
	if err != nil {
		t.Fatalf("opening the older build's directory: %v", err)
	}
	defer c.Close()
	rec := c.Recovery()
	if rec.Queries != 57 || rec.SnapshotRecords != 40 || rec.Replayed != 46 || len(rec.CheckpointRestored) != 3 {
		t.Fatalf("recovery %+v, want 57 queries from a 40-record snapshot, 46 replayed records and three restored checkpoints", *rec)
	}

	want, err := os.ReadFile("testdata/parent_datadir.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := parentBodies(t, c)
	if strings.Count(got, `"sessionId":`) != 57 || !strings.Contains(got, "GET /v1/sessions?limit=4&cursor=") {
		t.Fatalf("the bodies no longer cover every query and a paged listing:\n%.2000s", got)
	}
	if got != string(want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("bodies differ from the older build's at byte %d\n   now: …%.300s\nparent: …%.300s", i, got[max(0, i-80):], string(want)[max(0, i-80):])
	}
}

// parentBodies renders what the golden holds, in its order: the session
// listing page by page for three principals, the graph of every session ID
// up to three past the session count, and every query ID up to two past the
// record count, as an administrator.
func parentBodies(t *testing.T, c *core.CQMS) string {
	t.Helper()
	ts := httptest.NewServer(server.New(c).Handler())
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
	for id := 1; id <= c.SessionCount()+3; id++ {
		get(fmt.Sprintf("/v1/sessions/%d/graph", id), "X-CQMS-User", "root", "X-CQMS-Admin", "true")
	}
	for id := 1; id <= c.Store().Count()+2; id++ {
		get(fmt.Sprintf("/v1/queries/%d", id), "X-CQMS-User", "root", "X-CQMS-Admin", "true")
	}
	return doc.String()
}
