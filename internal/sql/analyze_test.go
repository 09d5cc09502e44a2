package sql

import (
	"reflect"
	"sort"
	"testing"
)

func TestAnalyzePaperExample(t *testing.T) {
	// The Figure 2/3 running example: correlate salinity with temperature.
	q := `SELECT * FROM WaterSalinity S, WaterTemp T, CityLocations L
	      WHERE T.temp < 18 AND S.loc_x = T.loc_x AND S.loc_y = T.loc_y`
	a, err := AnalyzeQuery(q)
	if err != nil {
		t.Fatalf("AnalyzeQuery: %v", err)
	}
	wantTables := []string{"CityLocations", "WaterSalinity", "WaterTemp"}
	if !reflect.DeepEqual(a.Tables, wantTables) {
		t.Errorf("tables = %v, want %v", a.Tables, wantTables)
	}
	stmt, err := ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, aliases := TablesOf(stmt); aliases["S"] != "WaterSalinity" || aliases["T"] != "WaterTemp" {
		t.Errorf("aliases = %v", aliases)
	}
	// One selection predicate and two join predicates.
	var sel, join int
	for _, p := range a.Predicates {
		if p.IsJoin {
			join++
		} else {
			sel++
		}
	}
	if sel != 1 || join != 2 {
		t.Errorf("selection preds = %d join preds = %d, want 1 and 2", sel, join)
	}
	// The selection predicate should be resolved to WaterTemp.temp.
	found := false
	for _, p := range a.Predicates {
		if !p.IsJoin && p.Rel == "WaterTemp" && p.Attr == "temp" && p.Op == "<" && p.Const == "18" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected predicate WaterTemp.temp < 18, got %#v", a.Predicates)
	}
}

func TestAnalyzeResolvesAliases(t *testing.T) {
	a, err := AnalyzeQuery("SELECT s.salinity FROM WaterSalinity s WHERE s.depth > 5")
	if err != nil {
		t.Fatalf("AnalyzeQuery: %v", err)
	}
	var selCols []string
	for _, c := range a.Attributes {
		if c.Clause == "SELECT" {
			selCols = append(selCols, c.Rel+"."+c.Attr)
		}
	}
	if len(selCols) != 1 || selCols[0] != "WaterSalinity.salinity" {
		t.Errorf("select columns = %v", selCols)
	}
}

func TestAnalyzeUnqualifiedSingleTable(t *testing.T) {
	a, err := AnalyzeQuery("SELECT temp FROM WaterTemp WHERE temp < 18")
	if err != nil {
		t.Fatalf("AnalyzeQuery: %v", err)
	}
	if len(a.Predicates) != 1 {
		t.Fatalf("predicates = %d, want 1", len(a.Predicates))
	}
	if a.Predicates[0].Rel != "WaterTemp" {
		t.Errorf("predicate table = %q, want WaterTemp (resolved from single FROM table)", a.Predicates[0].Rel)
	}
}

func TestAnalyzeAggregatesAndGroupBy(t *testing.T) {
	a, err := AnalyzeQuery("SELECT lake, AVG(temp), COUNT(*) FROM WaterTemp GROUP BY lake HAVING MAX(temp) > 30 ORDER BY lake")
	if err != nil {
		t.Fatalf("AnalyzeQuery: %v", err)
	}
	wantAggs := []string{"AVG", "COUNT", "MAX"}
	if !reflect.DeepEqual(a.Aggregates, wantAggs) {
		t.Errorf("aggregates = %v, want %v", a.Aggregates, wantAggs)
	}
	if len(a.GroupBy) != 1 || a.GroupBy[0] != "WaterTemp.lake" {
		t.Errorf("group by = %v", a.GroupBy)
	}
	if order := attributesIn(a, "ORDERBY"); len(order) != 1 || order[0] != "WaterTemp.lake" {
		t.Errorf("order by = %v", order)
	}
}

func TestAnalyzeNormalizesFlippedComparison(t *testing.T) {
	a, err := AnalyzeQuery("SELECT * FROM WaterTemp WHERE 18 > temp")
	if err != nil {
		t.Fatalf("AnalyzeQuery: %v", err)
	}
	if len(a.Predicates) != 1 {
		t.Fatalf("predicates = %d, want 1", len(a.Predicates))
	}
	p := a.Predicates[0]
	if p.Attr != "temp" || p.Op != "<" || p.Const != "18" {
		t.Errorf("predicate = %#v, want temp < 18", p)
	}
}

func TestAnalyzeSubqueriesCountedAndTablesCollected(t *testing.T) {
	q := `SELECT city FROM CityLocations WHERE city IN (SELECT city FROM Cities WHERE state = 'WA')
	      AND EXISTS (SELECT 1 FROM Lakes WHERE Lakes.city = CityLocations.city)`
	a, err := AnalyzeQuery(q)
	if err != nil {
		t.Fatalf("AnalyzeQuery: %v", err)
	}
	if sel, _ := ParseSelect(q); len(Subqueries(sel)) != 2 {
		t.Errorf("sub-queries = %d, want 2", len(Subqueries(sel)))
	}
	wantTables := []string{"Cities", "CityLocations", "Lakes"}
	if !reflect.DeepEqual(a.Tables, wantTables) {
		t.Errorf("tables = %v, want %v", a.Tables, wantTables)
	}
}

func TestAnalyzePredicateKinds(t *testing.T) {
	q := `SELECT * FROM t WHERE a IN (1, 2) AND b BETWEEN 0 AND 5 AND name LIKE 'Lake%' AND c IS NULL AND d IS NOT NULL`
	a, err := AnalyzeQuery(q)
	if err != nil {
		t.Fatalf("AnalyzeQuery: %v", err)
	}
	ops := make(map[string]bool)
	for _, p := range a.Predicates {
		ops[p.Op] = true
	}
	for _, want := range []string{"IN", "BETWEEN", "LIKE", "ISNULL", "ISNOTNULL"} {
		if !ops[want] {
			t.Errorf("missing predicate op %s in %v", want, a.Predicates)
		}
	}
}

func TestAnalyzeJoinOnPredicates(t *testing.T) {
	a, err := AnalyzeQuery("SELECT * FROM WaterSalinity s JOIN WaterTemp w ON s.loc_x = w.loc_x WHERE w.temp < 18")
	if err != nil {
		t.Fatalf("AnalyzeQuery: %v", err)
	}
	var joins []PredicateRow
	for _, p := range a.Predicates {
		if p.IsJoin {
			joins = append(joins, p)
		}
	}
	if len(joins) != 1 {
		t.Fatalf("joins = %d, want 1", len(joins))
	}
	pair := []string{joins[0].Rel, joins[0].RightRel}
	sort.Strings(pair)
	if pair[0] != "WaterSalinity" || pair[1] != "WaterTemp" {
		t.Errorf("join tables = %v", pair)
	}
}

func TestAnalyzeOutputAliasNotTreatedAsColumn(t *testing.T) {
	// ORDER BY / GROUP BY references to a SELECT-list alias must not be
	// reported as base-column uses; otherwise the maintenance validator would
	// flag them as dropped columns.
	a, err := AnalyzeQuery("SELECT lake, AVG(temp) AS avg_temp FROM WaterTemp GROUP BY lake ORDER BY avg_temp DESC")
	if err != nil {
		t.Fatalf("AnalyzeQuery: %v", err)
	}
	for _, c := range a.Attributes {
		if c.Attr == "avg_temp" {
			t.Errorf("alias avg_temp reported as column use: %+v", c)
		}
	}
	if order := attributesIn(a, "ORDERBY"); len(order) != 0 {
		t.Errorf("ORDER BY attributes = %v, want none (alias only)", order)
	}
	// A real column in ORDER BY is still reported.
	a, err = AnalyzeQuery("SELECT lake FROM WaterTemp ORDER BY temp")
	if err != nil {
		t.Fatal(err)
	}
	if order := attributesIn(a, "ORDERBY"); len(order) != 1 || order[0] != "WaterTemp.temp" {
		t.Errorf("ORDER BY attributes = %v, want WaterTemp.temp", order)
	}
}

func TestAnalyzeNonSelectEmpty(t *testing.T) {
	a, err := AnalyzeQuery("INSERT INTO t VALUES (1)")
	if err != nil {
		t.Fatalf("AnalyzeQuery: %v", err)
	}
	if len(a.Tables) != 0 || len(a.Predicates) != 0 {
		t.Errorf("expected empty analysis for DML, got %#v", a)
	}
}

func TestAnalyzeInvalidSQL(t *testing.T) {
	if _, err := AnalyzeQuery("SELECT FROM WHERE"); err == nil {
		t.Error("expected error for invalid SQL")
	}
}

func TestFeatureSet(t *testing.T) {
	a, err := AnalyzeQuery("SELECT AVG(temp) FROM WaterTemp GROUP BY lake HAVING AVG(temp) > 10")
	if err != nil {
		t.Fatalf("AnalyzeQuery: %v", err)
	}
	fs := a.FeatureSet()
	want := map[string]bool{
		"table:WaterTemp":              true,
		"agg:AVG":                      true,
		"groupby:WaterTemp.lake":       true,
		"col:WaterTemp.temp":           true,
		"col:WaterTemp.lake":           true,
		"pred:WaterTemp.temp(AVG) > ?": false, // HAVING on aggregate is not an atomic column predicate
	}
	got := make(map[string]bool)
	for _, f := range fs {
		got[f] = true
	}
	for f, required := range want {
		if required && !got[f] {
			t.Errorf("FeatureSet missing %q: %v", f, fs)
		}
	}
	// FeatureSet must be sorted and free of duplicates.
	if !sort.StringsAreSorted(fs) {
		t.Errorf("FeatureSet not sorted: %v", fs)
	}
	seen := map[string]bool{}
	for _, f := range fs {
		if seen[f] {
			t.Errorf("duplicate feature %q", f)
		}
		seen[f] = true
	}
}

func TestPredicateKeys(t *testing.T) {
	p := PredicateRow{Rel: "WaterTemp", Attr: "temp", Op: "<", Const: "18"}
	if p.Text() != "WaterTemp.temp < 18" {
		t.Errorf("Text = %q", p.Text())
	}
	if p.Feature() != "pred:WaterTemp.temp < ?" {
		t.Errorf("Feature = %q", p.Feature())
	}
	// An unknown relation leaves the text and the attribute name unqualified,
	// but not the feature string.
	u := PredicateRow{Attr: "temp", Op: "<", Const: "18"}
	if u.Text() != "temp < 18" || u.Feature() != "pred:.temp < ?" {
		t.Errorf("unqualified: Text = %q, Feature = %q", u.Text(), u.Feature())
	}
	if n := (AttributeRow{Attr: "temp"}).Name(); n != "temp" {
		t.Errorf("Name = %q", n)
	}
	j := PredicateRow{Rel: "B", Attr: "x", Op: "=", IsJoin: true, RightRel: "A", RightAttr: "y"}
	// Join keys are order-normalised; the text keeps the written order.
	j2 := PredicateRow{Rel: "A", Attr: "y", Op: "=", IsJoin: true, RightRel: "B", RightAttr: "x"}
	if j.Feature() != j2.Feature() || j.Feature() != "join:A.y=B.x" {
		t.Errorf("join features: %q vs %q", j.Feature(), j2.Feature())
	}
	k, left, right := j.CanonicalJoin()
	k2, _, _ := j2.CanonicalJoin()
	if k != k2 || k != "A.y = B.x" || left != "A" || right != "B" {
		t.Errorf("canonical joins: %q (%s, %s) vs %q", k, left, right, k2)
	}
	if j.Text() != "B.x = A.y" {
		t.Errorf("join Text = %q", j.Text())
	}
	// A non-equi join keeps its written order in the canonical key; its
	// feature string orders the sides whatever the operator.
	lt := PredicateRow{Rel: "B", Attr: "x", Op: "<", IsJoin: true, RightRel: "A", RightAttr: "y"}
	if k, _, _ := lt.CanonicalJoin(); k != "B.x < A.y" || lt.Feature() != "join:A.y=B.x" {
		t.Errorf("non-equi join: key %q, feature %q", k, lt.Feature())
	}
}

// attributesIn returns the names of the analysis's attributes used in clause.
func attributesIn(a *Analysis, clause string) []string {
	var out []string
	for _, c := range a.Attributes {
		if c.Clause == clause {
			out = append(out, c.Name())
		}
	}
	return out
}

func TestAnalyzeNilSelect(t *testing.T) {
	a := Analyze(nil)
	if a == nil || len(a.Tables) != 0 {
		t.Errorf("Analyze(nil) = %#v", a)
	}
}
