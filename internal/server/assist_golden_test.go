package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/profiler"
	"repro/internal/server"
	"repro/internal/storage"
)

// assistTexts extend fixtureLog with what its history lacks: qualified
// predicates, equi-joins in both orders and through aliases, a join with an
// unqualified side, a non-equi join, aggregates with grouping, and LIKE,
// BETWEEN, IN and IS NOT NULL predicates. One user submits them half a
// minute apart, so they form one session whose edges are labelled.
var assistTexts = []string{
	"SELECT WaterTemp.lake, WaterTemp.temp FROM WaterTemp WHERE WaterTemp.temp < 12",
	"SELECT WaterTemp.lake, WaterSalinity.salinity FROM WaterTemp, WaterSalinity WHERE WaterTemp.lake = WaterSalinity.lake AND WaterTemp.temp < 12",
	"SELECT T.lake, S.salinity FROM WaterSalinity S JOIN WaterTemp T ON T.loc_x = S.loc_x WHERE S.salinity > 2",
	"SELECT * FROM WaterTemp, WaterSalinity WHERE lake = WaterSalinity.lake",
	"SELECT * FROM WaterTemp T, WaterSalinity S WHERE T.temp > S.salinity",
	"SELECT lake, AVG(temp) FROM WaterTemp WHERE temp BETWEEN 3 AND 12 GROUP BY lake",
	"SELECT * FROM WaterTemp WHERE lake LIKE 'Lake%' AND temp IS NOT NULL",
	"SELECT WaterTemp.lake FROM WaterTemp WHERE WaterTemp.temp < 15 AND WaterTemp.lake IN ('Lake Union', 'Green Lake')",
	"SELECT WaterTemp.lake FROM WaterTemp WHERE WaterTemp.temp < 15",
}

// assistInputs are what the golden asks the assist endpoints about: partials
// that do not parse, a qualified and an unqualified predicate, a join, an
// aggregate and misspelled names. Each misspelled column is a column of one
// table alone: for a name several tables share (lake), Corrections suggests
// whichever table the catalog's map yields last.
var assistInputs = []string{
	"SELECT * FROM WaterTemp WHERE ",
	"SELECT temp FROM WaterTemp, WaterSalinity WHERE",
	"SELECT lake FROM WaterTemp WHERE WaterTemp.temp < 12",
	"SELECT lake FROM WaterTemp WHERE temp < 18",
	"SELECT * FROM WaterTemp, WaterSalinity WHERE temp < 22",
	"SELECT * FROM WaterTemp, WaterSalinity WHERE WaterTemp.lake = WaterSalinity.lake",
	"SELECT * FROM WaterSalinity, WaterTemp WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND WaterSalinity.salinity > 2",
	"SELECT lake, AVG(temp) FROM WaterTemp GROUP BY lake",
	"SELECT * FROM WaterTmp WHERE tmp < 3",
	"SELECT tmp, dpth FROM WaterTemp, WaterSalinty WHERE salinty > 1",
}

// emptyResultInputs are queries that return no rows, for
// EmptyResultSuggestions: a qualified and an unqualified predicate on a
// column the log holds, one on two tables, and a join beside a constant.
var emptyResultInputs = []string{
	"SELECT * FROM WaterTemp WHERE temp < -100",
	"SELECT lake FROM WaterTemp WHERE WaterTemp.temp < -5 AND lake = 'Nowhere'",
	"SELECT * FROM WaterTemp, WaterSalinity WHERE temp < -100 AND WaterSalinity.salinity > 99",
	"SELECT * FROM WaterTemp T, WaterSalinity S WHERE T.lake = S.lake AND S.salinity > 99",
}

// assistBodies serves fixtureLog extended by assistTexts and returns, for two
// principals and every input, the bodies of POST /v1/assist/complete and
// /v1/assist/corrections, the diff column of /v1/assist/similar (its rows by
// query ID: its order turns on measured run times), EmptyResultSuggestions,
// and the graph of the session assistTexts form.
func assistBodies(t *testing.T) string {
	t.Helper()
	cqms := fixtureLog(t)
	clock := time.Date(2009, 1, 6, 9, 0, 0, 0, time.UTC)
	var first storage.QueryID
	for i, text := range assistTexts {
		out, err := cqms.Submit(profiler.Submission{
			User: "dana", Group: "limnology", Visibility: storage.VisibilityPublic,
			SQL: text, IssuedAt: clock.Add(time.Duration(i) * 30 * time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out.QueryID
		}
	}
	cqms.RunMiner()
	ts := httptest.NewServer(server.New(cqms).Handler())
	defer ts.Close()

	var doc strings.Builder
	do := func(method, path string, body []byte, headers []string) []byte {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
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
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&doc, "%s %s %s %v -> %d\n", method, path, body, headers, resp.StatusCode)
		return out
	}
	principals := []struct {
		headers []string
		p       storage.Principal
	}{
		{[]string{"X-CQMS-User", "root", "X-CQMS-Admin", "true"}, storage.Principal{User: "root", Admin: true}},
		{[]string{"X-CQMS-User", "alice", "X-CQMS-Groups", "limnology"}, storage.Principal{User: "alice", Groups: []string{"limnology"}}},
	}
	for _, who := range principals {
		for _, input := range assistInputs {
			body, err := json.Marshal(map[string]any{"partial": input, "k": 4})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&doc, "%s\n", do("POST", "/v1/assist/complete", body, who.headers))
			fmt.Fprintf(&doc, "%s\n", do("POST", "/v1/assist/corrections", body, who.headers))
			body, err = json.Marshal(map[string]any{"partial": input, "k": 500})
			if err != nil {
				t.Fatal(err)
			}
			var similar struct {
				Similar []struct {
					Query struct{ ID int64 }
					Diff  string
				}
			}
			if err := json.Unmarshal(do("POST", "/v1/assist/similar", body, who.headers), &similar); err != nil {
				t.Fatal(err)
			}
			sort.Slice(similar.Similar, func(i, j int) bool { return similar.Similar[i].Query.ID < similar.Similar[j].Query.ID })
			for _, s := range similar.Similar {
				fmt.Fprintf(&doc, "q%d %s\n", s.Query.ID, s.Diff)
			}
		}
		for _, input := range emptyResultInputs {
			out, err := cqms.EmptyResultSuggestions(context.Background(), who.p, input, 3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&doc, "EmptyResultSuggestions %q %s -> %s\n", input, who.p.User, got)
		}
	}
	fmt.Fprintf(&doc, "%s\n", do("GET", fmt.Sprintf("/v1/sessions/%d/graph", first), nil, principals[0].headers))
	return doc.String()
}

// TestAssistBodiesMatchParentGolden holds completion, correction, the
// similar-queries diff column, empty-result suggestions and session edge
// labels — everything that reads a query's Figure 1 rows through a key
// spelled from them — to what commit 100db48 served, before those rows had
// one type: testdata/parent_assist.golden was written by that commit running
// assistBodies, and is not regenerated.
func TestAssistBodiesMatchParentGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/parent_assist.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := assistBodies(t)
	for _, must := range []string{`"kind":"join"`, `"kind":"predicate"`, `"kind":"column"`, `~1 const`, `+pred`, `"Kind":"predicate"`} {
		if !strings.Contains(got, must) {
			t.Fatalf("the golden no longer covers %s:\n%s", must, got)
		}
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d:\n   now: %s\nparent: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("assist bodies have %d lines, the parent's %d", len(gotLines), len(wantLines))
}
