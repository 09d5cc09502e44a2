package sql_test

import (
	"bufio"
	"encoding/json"
	"os"
	"testing"
)

// featureStatements extend the statements of parent_records.jsonl with the
// feature shapes that file does not reach: aliased and ON joins, a join with
// an unqualified side, non-equi joins, every predicate form, HAVING, ORDER BY
// an output alias, derived tables and sub-queries in expression position.
var featureStatements = []string{
	"SELECT S.lake, T.temp FROM WaterSalinity S JOIN WaterTemp T ON T.loc_x = S.loc_x AND T.loc_y = S.loc_y WHERE S.salinity > 2",
	"SELECT * FROM WaterTemp, WaterSalinity WHERE lake = WaterSalinity.lake AND temp < 22",
	"SELECT * FROM WaterTemp T, WaterSalinity S WHERE T.temp > S.salinity OR 18 > T.temp",
	"SELECT lake FROM WaterTemp WHERE lake IN ('a', 'b') AND temp BETWEEN 1 AND 2 AND lake LIKE 'L%' AND temp IS NULL AND NOT depth IS NOT NULL",
	"SELECT lake, AVG(temp) AS avg_temp, COUNT(*) FROM WaterTemp GROUP BY lake HAVING MAX(temp) > 3 ORDER BY avg_temp DESC, lake LIMIT 5",
	"SELECT DISTINCT x.lake FROM (SELECT lake FROM WaterTemp WHERE temp < 3) AS x WHERE x.lake IN (SELECT lake FROM WaterSalinity WHERE salinity = 1)",
	"SELECT a.lake FROM WaterTemp a LEFT JOIN WaterSalinity b ON a.lake = b.lake WHERE b.lake IS NULL",
	"SELECT Unknown.col FROM WaterTemp WHERE Unknown.col <> 'x'",
}

// featureLine is the golden form of one statement's features: its Figure 1
// rows — tables, attributes with their clause, predicates with their join
// sides, aggregates, group-by — and its flat feature set, as the front end
// stores them.
type featureLine struct {
	Text       string   `json:"text"`
	Tables     []string `json:"tables"`
	Attributes any      `json:"attributes"`
	Predicates any      `json:"predicates"`
	Aggregates []string `json:"aggregates"`
	GroupBy    []string `json:"groupBy"`
	Features   []string `json:"features"`
}

// featureLines renders every statement of parent_records.jsonl and of
// featureStatements, one JSON line each.
func featureLines(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("testdata/parent_records.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var texts []string
	lines := bufio.NewScanner(f)
	lines.Buffer(nil, 1<<20)
	for lines.Scan() {
		var rec goldenRecord
		if err := json.Unmarshal(lines.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		texts = append(texts, rec.Text)
	}
	if err := lines.Err(); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, text := range append(texts, featureStatements...) {
		rec, _ := frontEndRecord(text)
		b, err := json.Marshal(featureLine{
			Text: rec.Text, Tables: rec.Tables, Attributes: rec.Attributes, Predicates: rec.Predicates,
			Aggregates: rec.Aggregates, GroupBy: rec.GroupBy, Features: rec.Features,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return out
}

// TestFeatureRowsMatchParentGolden holds every stored feature row to what
// commit 100db48 stored, before the analyzer and the log shared one row type:
// testdata/parent_features.jsonl was written by that commit running
// featureLines, and is not regenerated. parent_records.jsonl pins only the
// tables and the flat feature set; this pins each row, its clause and its
// join sides, byte for byte, nil and empty apart.
func TestFeatureRowsMatchParentGolden(t *testing.T) {
	f, err := os.Open("testdata/parent_features.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	lines := bufio.NewScanner(f)
	lines.Buffer(nil, 1<<20)
	for lines.Scan() {
		want = append(want, lines.Text())
	}
	if err := lines.Err(); err != nil {
		t.Fatal(err)
	}
	got := featureLines(t)
	if len(got) != len(want) || len(got) < 100 {
		t.Fatalf("%d lines, the golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d\n   now: %s\nparent: %s", i+1, got[i], want[i])
		}
	}
}
