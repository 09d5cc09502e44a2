package server_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/workload"
)

var ctx = context.Background()

// newTestServer starts an httptest server over a populated CQMS and returns
// clients for a limnologist, an astronomer and an admin.
func newTestServer(t testing.TB) (*httptest.Server, *client.Client, *client.Client, *client.Client) {
	t.Helper()
	eng := engine.New()
	if err := workload.Populate(eng, 200, 1); err != nil {
		t.Fatalf("Populate: %v", err)
	}
	cqms := core.NewWithEngine(eng, core.DefaultConfig())
	ts := httptest.NewServer(server.New(cqms).Handler())
	t.Cleanup(ts.Close)
	alice := client.New(ts.URL, client.WithUser("alice", "limnology"))
	carol := client.New(ts.URL, client.WithUser("carol", "astro"))
	admin := client.New(ts.URL, client.WithUser("root"), client.WithAdmin())
	return ts, alice, carol, admin
}

func TestSubmitAndHistoryOverHTTP(t *testing.T) {
	_, alice, _, _ := newTestServer(t)
	resp, err := alice.Submit(ctx, "SELECT lake, temp FROM WaterTemp WHERE temp < 18",
		client.Group("limnology"), client.Visibility("group"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.QueryID == 0 || resp.RowCount == 0 || len(resp.Columns) != 2 {
		t.Errorf("submit response = %+v", resp)
	}
	if resp.ExecError != "" {
		t.Errorf("unexpected exec error %q", resp.ExecError)
	}
	hist, err := alice.History(ctx, "").All()
	if err != nil {
		t.Fatalf("History: %v", err)
	}
	if len(hist) != 1 || hist[0].Query.User != "alice" {
		t.Errorf("history = %+v", hist)
	}
}

func TestSubmitInvalidSQLOverHTTP(t *testing.T) {
	_, alice, _, _ := newTestServer(t)
	if _, err := alice.Submit(ctx, "SELEKT nonsense", client.Group("limnology")); err == nil {
		t.Error("expected an error for unparsable SQL")
	}
	if _, err := alice.Submit(ctx, "", client.Group("limnology")); err == nil {
		t.Error("expected an error for empty SQL")
	}
	// Execution errors (valid SQL, missing table) are reported in-band.
	resp, err := alice.Submit(ctx, "SELECT * FROM NoSuchTable", client.Group("limnology"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.ExecError == "" {
		t.Errorf("expected execError for missing table")
	}
}

func TestAnnotateAndKeywordSearchOverHTTP(t *testing.T) {
	_, alice, _, _ := newTestServer(t)
	resp, err := alice.Submit(ctx, "SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x",
		client.Group("limnology"))
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Annotate(ctx, resp.QueryID, "Seattle lakes correlation"); err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	matches, err := alice.SearchKeyword(ctx, "Seattle", "salinity").All()
	if err != nil {
		t.Fatalf("SearchKeyword: %v", err)
	}
	if len(matches) != 1 || matches[0].Query.ID != resp.QueryID {
		t.Errorf("keyword matches = %+v", matches)
	}
	if len(matches[0].Query.Annotations) != 1 {
		t.Errorf("annotations not returned: %+v", matches[0].Query)
	}
}

func TestMetaQueryOverHTTP(t *testing.T) {
	_, alice, _, admin := newTestServer(t)
	if _, err := alice.Submit(ctx, "SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x",
		client.Group("limnology"), client.Visibility("public")); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Submit(ctx, "SELECT city FROM CityLocations",
		client.Group("limnology"), client.Visibility("public")); err != nil {
		t.Fatal(err)
	}
	matches, err := admin.MetaQuery(ctx, `SELECT Q.qid FROM Queries Q, DataSources D1, DataSources D2
		WHERE Q.qid = D1.qid AND Q.qid = D2.qid AND D1.relName = 'WaterSalinity' AND D2.relName = 'WaterTemp'`).All()
	if err != nil {
		t.Fatalf("MetaQuery: %v", err)
	}
	if len(matches) != 1 {
		t.Errorf("meta-query matches = %d, want 1", len(matches))
	}
	// Invalid meta-SQL is a client error.
	if _, err := admin.MetaQuery(ctx, "SELEKT").All(); err == nil {
		t.Error("expected error for invalid meta-query")
	}
}

func TestAccessControlOverHTTP(t *testing.T) {
	_, alice, carol, _ := newTestServer(t)
	resp, err := alice.Submit(ctx, "SELECT temp FROM WaterTemp WHERE temp < 18",
		client.Group("limnology"))
	if err != nil {
		t.Fatal(err)
	}
	// Carol (different group) cannot see alice's query via keyword search.
	matches, err := carol.SearchKeyword(ctx, "WaterTemp").All()
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("carol sees %d of alice's group queries, want 0", len(matches))
	}
	// Carol cannot change its visibility either.
	if err := carol.SetVisibility(ctx, resp.QueryID, "public"); err == nil {
		t.Error("expected forbidden error")
	}
	// Alice can.
	if err := alice.SetVisibility(ctx, resp.QueryID, "public"); err != nil {
		t.Errorf("owner SetVisibility: %v", err)
	}
	matches, err = carol.SearchKeyword(ctx, "WaterTemp").All()
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Errorf("after publication carol sees %d, want 1", len(matches))
	}
}

func TestAssistEndpointsOverHTTP(t *testing.T) {
	_, alice, _, admin := newTestServer(t)
	for i := 0; i < 5; i++ {
		if _, err := alice.Submit(ctx, "SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x AND WaterTemp.temp < 18",
			client.Group("limnology")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := admin.Mine(ctx); err != nil {
		t.Fatalf("Mine: %v", err)
	}
	completions, err := alice.Complete(ctx, "SELECT * FROM WaterSalinity", 3)
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	foundWaterTemp := false
	for _, c := range completions {
		if c.Kind == "table" && c.Text == "WaterTemp" {
			foundWaterTemp = true
		}
	}
	if !foundWaterTemp {
		t.Errorf("completions = %+v, want WaterTemp table suggestion", completions)
	}
	corrections, err := alice.Corrections(ctx, "SELECT tmep FROM WaterTemp")
	if err != nil {
		t.Fatalf("Corrections: %v", err)
	}
	if len(corrections) == 0 {
		t.Errorf("no corrections over HTTP")
	}
	similar, err := alice.SimilarQueries(ctx, "SELECT WaterTemp.temp FROM WaterTemp WHERE WaterTemp.temp < 20", 3)
	if err != nil {
		t.Fatalf("SimilarQueries: %v", err)
	}
	if len(similar) == 0 {
		t.Errorf("no similar queries over HTTP")
	}
	if similar[0].Diff == "" {
		t.Errorf("similar query missing diff column")
	}
}

func TestSessionsAndGraphOverHTTP(t *testing.T) {
	_, alice, _, admin := newTestServer(t)
	queries := []string{
		"SELECT * FROM WaterTemp WHERE temp < 22",
		"SELECT * FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND WaterTemp.temp < 22",
		"SELECT * FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND WaterTemp.temp < 18",
	}
	for _, q := range queries {
		if _, err := alice.Submit(ctx, q, client.Group("limnology")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := admin.Mine(ctx); err != nil {
		t.Fatal(err)
	}
	sessions, err := alice.Sessions(ctx).All()
	if err != nil {
		t.Fatalf("Sessions: %v", err)
	}
	if len(sessions) != 1 || sessions[0].QueryCount != 3 {
		t.Fatalf("sessions = %+v", sessions)
	}
	graph, err := alice.SessionGraph(ctx, sessions[0].ID)
	if err != nil {
		t.Fatalf("SessionGraph: %v", err)
	}
	if !strings.Contains(graph, "+table WaterSalinity") {
		t.Errorf("graph missing edge label:\n%s", graph)
	}
	if _, err := alice.SessionGraph(ctx, 99999); err == nil {
		t.Error("expected not-found error")
	}
}

// TestSessionIDsAreCurrentWithoutMining: the session detector is the one
// home of session membership, so right after a write — no mining pass — a
// query's sessionId, the Queries feature relation's sessionId and the session
// listing agree: every query names a listed session, each listed session
// holds as many queries as name it, and a meta-query selecting a session's
// ID returns exactly those queries.
func TestSessionIDsAreCurrentWithoutMining(t *testing.T) {
	_, alice, carol, admin := newTestServer(t)
	var ids []int64
	for _, q := range []string{
		"SELECT * FROM WaterTemp WHERE temp < 22",
		"SELECT * FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND WaterTemp.temp < 22",
		"SELECT * FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND WaterTemp.temp < 18",
	} {
		resp, err := alice.Submit(ctx, q, client.Group("limnology"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.QueryID)
	}
	resp, err := carol.Submit(ctx, "SELECT ra FROM Stars WHERE magnitude < 6", client.Group("astro"))
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, resp.QueryID)

	agree := func(what string, ids []int64) {
		t.Helper()
		sessions, err := admin.Sessions(ctx).All()
		if err != nil {
			t.Fatal(err)
		}
		members := map[int64][]int64{}
		for _, id := range ids {
			q, err := admin.GetQuery(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			members[q.SessionID] = append(members[q.SessionID], id)
		}
		if len(sessions) != len(members) {
			t.Fatalf("%s: %d sessions listed, the queries name %d: %v", what, len(sessions), len(members), members)
		}
		for _, s := range sessions {
			if len(members[s.ID]) != s.QueryCount {
				t.Fatalf("%s: session %d lists %d queries, %v name it", what, s.ID, s.QueryCount, members[s.ID])
			}
			matches, err := admin.MetaQuery(ctx, fmt.Sprintf("SELECT qid FROM Queries WHERE sessionId = %d", s.ID)).All()
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			for _, m := range matches {
				got = append(got, m.Query.ID)
			}
			if !slices.Equal(got, members[s.ID]) {
				t.Fatalf("%s: the feature relation puts %v in session %d, the queries say %v", what, got, s.ID, members[s.ID])
			}
		}
	}
	agree("after the submits", ids)
	if err := alice.DeleteQuery(ctx, ids[1]); err != nil {
		t.Fatal(err)
	}
	agree("after a deletion", slices.Delete(ids, 1, 2))
}

func TestMaintainAndStatsOverHTTP(t *testing.T) {
	_, alice, _, admin := newTestServer(t)
	if _, err := alice.Submit(ctx, "SELECT temp FROM WaterTemp WHERE temp < 18",
		client.Group("limnology")); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Submit(ctx, "ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature",
		client.Group("limnology")); err != nil {
		t.Fatal(err)
	}
	report, err := admin.Maintain(ctx)
	if err != nil {
		t.Fatalf("Maintain: %v", err)
	}
	if len(report.Repaired) != 1 {
		t.Errorf("repaired = %+v, want one repair", report.Repaired)
	}
	stats, err := admin.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.Queries != 2 || stats.UserCount != 1 || stats.TableCount != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestDeleteOverHTTP(t *testing.T) {
	_, alice, carol, _ := newTestServer(t)
	resp, err := alice.Submit(ctx, "SELECT temp FROM WaterTemp", client.Group("limnology"))
	if err != nil {
		t.Fatal(err)
	}
	if err := carol.DeleteQuery(ctx, resp.QueryID); err == nil {
		t.Error("non-owner delete should fail")
	}
	if err := alice.DeleteQuery(ctx, resp.QueryID); err != nil {
		t.Errorf("owner delete: %v", err)
	}
	if err := alice.DeleteQuery(ctx, 99999); err == nil {
		t.Error("deleting a missing query should fail")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _, _, _ := newTestServer(t)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("DELETE /v1/stats status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Errorf("Allow header = %q, want GET listed", allow)
	}
}
