package sql

import (
	"strings"
	"testing"
)

func mustDiff(t *testing.T, a, b string) *Diff {
	t.Helper()
	d, err := DiffQueries(a, b)
	if err != nil {
		t.Fatalf("DiffQueries(%q, %q): %v", a, b, err)
	}
	return d
}

func TestDiffIdenticalQueries(t *testing.T) {
	d := mustDiff(t,
		"SELECT * FROM WaterTemp WHERE temp < 18",
		"select *  from WaterTemp where temp < 18")
	if !d.Empty() {
		t.Errorf("diff = %v, want empty", d)
	}
	if d.String() != "none" {
		t.Errorf("String() = %q, want none", d.String())
	}
	if d.Summary() != "none" {
		t.Errorf("Summary() = %q, want none", d.Summary())
	}
}

func TestDiffAddTable(t *testing.T) {
	// The first edge in Figure 2: adding the WaterSalinity relation.
	d := mustDiff(t,
		"SELECT * FROM WaterTemp WHERE temp < 22",
		"SELECT * FROM WaterTemp, WaterSalinity WHERE temp < 22")
	found := false
	for _, e := range d.Entries {
		if e.Kind == DiffAddTable && e.Detail == "WaterSalinity" {
			found = true
		}
	}
	if !found {
		t.Errorf("diff = %v, want +table WaterSalinity", d)
	}
}

func TestDiffConstantChange(t *testing.T) {
	// The middle edges of Figure 2: trying different conditions on temp.
	d := mustDiff(t,
		"SELECT * FROM WaterTemp WHERE temp < 22",
		"SELECT * FROM WaterTemp WHERE temp < 18")
	if len(d.Entries) != 1 {
		t.Fatalf("diff = %v, want exactly one entry", d)
	}
	if d.Entries[0].Kind != DiffChangeConstant {
		t.Errorf("kind = %v, want ~const", d.Entries[0].Kind)
	}
	if !strings.Contains(d.Entries[0].Detail, "18") {
		t.Errorf("detail = %q, want new constant 18", d.Entries[0].Detail)
	}
}

func TestDiffAddPredicates(t *testing.T) {
	// The last edges of Figure 2: adding the two join predicates.
	d := mustDiff(t,
		"SELECT * FROM WaterSalinity S, WaterTemp T, CityLocations L WHERE T.temp < 18",
		"SELECT * FROM WaterSalinity S, WaterTemp T, CityLocations L WHERE T.temp < 18 AND S.loc_x = T.loc_x AND S.loc_y = T.loc_y")
	adds := 0
	for _, e := range d.Entries {
		if e.Kind == DiffAddPredicate {
			adds++
		}
	}
	if adds != 2 {
		t.Errorf("added predicates = %d, want 2 (%v)", adds, d)
	}
}

func TestDiffRemoveColumnAndPredicate(t *testing.T) {
	// The Figure 3 similar-queries pane shows "-1 col, -1 pred".
	d := mustDiff(t,
		"SELECT temp, salinity FROM WaterTemp WHERE temp < 18 AND salinity > 2",
		"SELECT temp FROM WaterTemp WHERE temp < 18")
	summary := d.Summary()
	if !strings.Contains(summary, "-1 col") || !strings.Contains(summary, "-1 pred") {
		t.Errorf("Summary = %q, want it to mention -1 col and -1 pred", summary)
	}
}

func TestDiffAggregateAndGroupBy(t *testing.T) {
	d := mustDiff(t,
		"SELECT temp FROM WaterTemp",
		"SELECT AVG(temp) FROM WaterTemp GROUP BY lake")
	var kinds []DiffKind
	for _, e := range d.Entries {
		kinds = append(kinds, e.Kind)
	}
	has := func(k DiffKind) bool {
		for _, kk := range kinds {
			if kk == k {
				return true
			}
		}
		return false
	}
	if !has(DiffAddAggregate) {
		t.Errorf("diff %v should contain +agg", d)
	}
	if !has(DiffAddGroupBy) {
		t.Errorf("diff %v should contain +groupby", d)
	}
}

func TestDiffSizeAndSymmetryOfCounts(t *testing.T) {
	a := "SELECT temp FROM WaterTemp WHERE temp < 18"
	b := "SELECT temp, salinity FROM WaterTemp, WaterSalinity WHERE temp < 18 AND salinity > 2"
	ab := mustDiff(t, a, b)
	ba := mustDiff(t, b, a)
	if len(ab.Entries) != len(ba.Entries) {
		t.Errorf("diff sizes asymmetric: %d vs %d", len(ab.Entries), len(ba.Entries))
	}
	// Every addition in one direction is a removal in the other.
	addsAB := 0
	for _, e := range ab.Entries {
		if e.Kind == DiffAddTable || e.Kind == DiffAddColumn || e.Kind == DiffAddPredicate {
			addsAB++
		}
	}
	removesBA := 0
	for _, e := range ba.Entries {
		if e.Kind == DiffRemoveTable || e.Kind == DiffRemoveColumn || e.Kind == DiffRemovePredicate {
			removesBA++
		}
	}
	if addsAB != removesBA {
		t.Errorf("adds(a→b) = %d, removes(b→a) = %d, want equal", addsAB, removesBA)
	}
}

func TestDiffInvalidQuery(t *testing.T) {
	if _, err := DiffQueries("SELECT * FROM t", "not sql at all"); err == nil {
		t.Error("expected error for invalid second query")
	}
	if _, err := DiffQueries("not sql", "SELECT * FROM t"); err == nil {
		t.Error("expected error for invalid first query")
	}
}

func TestDiffEntryString(t *testing.T) {
	e := DiffEntry{Kind: DiffAddPredicate, Detail: "temp < 18"}
	if e.String() != "+pred temp < 18" {
		t.Errorf("String = %q", e.String())
	}
}

func TestDiffKindString(t *testing.T) {
	if DiffKind(999).String() != "?" {
		t.Errorf("unknown kind should render as ?")
	}
	if DiffRemoveGroupBy.String() != "-groupby" {
		t.Errorf("-groupby rendering wrong")
	}
}

func TestComputeDiffNilAnalyses(t *testing.T) {
	d := ComputeDiff(nil, nil)
	if !d.Empty() {
		t.Errorf("nil/nil diff should be empty")
	}
	a, _ := AnalyzeQuery("SELECT * FROM t")
	d = ComputeDiff(nil, a)
	if d.Empty() {
		t.Errorf("nil→query diff should not be empty")
	}
}
