package storage

import (
	"testing"
)

// tenthSession stands in for the session detector, which this package cannot
// import: query n is in session 10n.
func tenthSession(rec *QueryRecord) int64 { return 10 * int64(rec.ID) }

// TestMaterializeFigure1MetaQuery reproduces Figure 1 of the paper end to
// end: the feature relations are materialised into the engine and the exact
// meta-query from the figure ("find all queries that correlate water
// salinity with water temperature data") is executed over them.
func TestMaterializeFigure1MetaQuery(t *testing.T) {
	s := NewStore()
	// Two queries that correlate salinity with temperature...
	target1 := putQuery(t, s,
		"SELECT salinity, temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x AND WaterSalinity.salinity > 2 AND WaterTemp.temp < 18",
		"alice", "limnology", VisibilityPublic)
	target2 := putQuery(t, s,
		"SELECT s.salinity, t.temp FROM WaterSalinity s JOIN WaterTemp t ON s.loc_x = t.loc_x",
		"bob", "limnology", VisibilityPublic)
	// ...and some that do not.
	putQuery(t, s, "SELECT temp FROM WaterTemp WHERE temp > 20", "alice", "limnology", VisibilityPublic)
	putQuery(t, s, "SELECT city FROM CityLocations", "bob", "limnology", VisibilityPublic)
	putQuery(t, s, "SELECT salinity FROM WaterSalinity WHERE depth > 10", "carol", "astro", VisibilityPublic)

	eng, err := s.MaterializeFeatureRelations(admin, tenthSession)
	if err != nil {
		t.Fatalf("MaterializeFeatureRelations: %v", err)
	}

	// The meta-query of Figure 1, verbatim (modulo whitespace).
	metaQuery := `SELECT Q.qid, Q.qText
		FROM Queries Q, Attributes A1, Attributes A2
		WHERE Q.qid = A1.qid AND Q.qid = A2.qid
		AND A1.attrName = 'salinity'
		AND A1.relName = 'WaterSalinity'
		AND A2.attrName = 'temp'
		AND A2.relName = 'WaterTemp'`
	res, err := eng.Execute(metaQuery)
	if err != nil {
		t.Fatalf("executing Figure 1 meta-query: %v", err)
	}
	gotIDs := make(map[int64]bool)
	for _, row := range res.Rows {
		gotIDs[row[0].Int] = true
	}
	if len(gotIDs) != 2 || !gotIDs[int64(target1)] || !gotIDs[int64(target2)] {
		t.Errorf("meta-query returned %v, want exactly queries %d and %d", gotIDs, target1, target2)
	}
}

func TestMaterializeIncludesStatsAndAnnotations(t *testing.T) {
	s := NewStore()
	id := putQuery(t, s, "SELECT temp FROM WaterTemp WHERE temp < 18", "alice", "limnology", VisibilityPublic)
	if err := s.UpdateStats(id, RuntimeStats{ResultRows: 10}); err != nil {
		t.Fatalf("UpdateStats: %v", err)
	}
	if err := s.Annotate(id, alice, Annotation{Text: "Seattle lakes survey"}); err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	eng, err := s.MaterializeFeatureRelations(admin, tenthSession)
	if err != nil {
		t.Fatalf("MaterializeFeatureRelations: %v", err)
	}
	res, err := eng.Execute("SELECT resultRows FROM QueryStats WHERE qid = 1")
	if err != nil {
		t.Fatalf("stats query: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 10 {
		t.Errorf("stats rows = %v", res.Rows)
	}
	res, err = eng.Execute("SELECT sessionId FROM Queries WHERE qid = 1")
	if err != nil {
		t.Fatalf("session query: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 10 {
		t.Errorf("sessionId rows = %v, want the lookup's 10", res.Rows)
	}
	res, err = eng.Execute("SELECT note FROM QueryAnnotations WHERE qid = 1")
	if err != nil {
		t.Fatalf("annotation query: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "Seattle lakes survey" {
		t.Errorf("annotation rows = %v", res.Rows)
	}
}

func TestMaterializeRespectsAccessControl(t *testing.T) {
	s := NewStore()
	putQuery(t, s, "SELECT temp FROM WaterTemp", "alice", "limnology", VisibilityPrivate)
	putQuery(t, s, "SELECT salinity FROM WaterSalinity", "bob", "limnology", VisibilityPublic)

	eng, err := s.MaterializeFeatureRelations(carol, tenthSession)
	if err != nil {
		t.Fatalf("MaterializeFeatureRelations: %v", err)
	}
	res, err := eng.Execute("SELECT COUNT(*) FROM Queries")
	if err != nil {
		t.Fatalf("count query: %v", err)
	}
	if res.Rows[0][0].Int != 1 {
		t.Errorf("carol sees %d queries in feature relations, want 1", res.Rows[0][0].Int)
	}
}

func TestMaterializeEmptyStore(t *testing.T) {
	s := NewStore()
	eng, err := s.MaterializeFeatureRelations(admin, tenthSession)
	if err != nil {
		t.Fatalf("MaterializeFeatureRelations: %v", err)
	}
	res, err := eng.Execute("SELECT COUNT(*) FROM Queries")
	if err != nil {
		t.Fatalf("count query: %v", err)
	}
	if res.Rows[0][0].Int != 0 {
		t.Errorf("count = %v, want 0", res.Rows[0][0])
	}
}

func TestRecordAnalysisRoundTrip(t *testing.T) {
	rec, err := NewRecordFromSQL("SELECT AVG(temp) FROM WaterTemp WHERE temp < 18 GROUP BY lake")
	if err != nil {
		t.Fatalf("NewRecordFromSQL: %v", err)
	}
	a := rec.Analysis()
	if len(a.Tables) != 1 || a.Tables[0] != "WaterTemp" {
		t.Errorf("analysis tables = %v", a.Tables)
	}
	if len(a.Predicates) != 1 || a.Predicates[0].Column != "temp" {
		t.Errorf("analysis predicates = %+v", a.Predicates)
	}
	if len(a.Aggregates) != 1 || a.Aggregates[0] != "AVG" {
		t.Errorf("analysis aggregates = %v", a.Aggregates)
	}
	if len(a.GroupByColumns) != 1 {
		t.Errorf("analysis group by = %v", a.GroupByColumns)
	}
}
