package metaquery

import (
	"context"
	"testing"

	"repro/internal/storage"
)

// tenthSession stands in for the session detector: query n is in session 10n.
func tenthSession(rec *storage.QueryRecord) int64 { return 10 * int64(rec.ID) }

// TestMaterializeFigure1MetaQuery reproduces Figure 1 of the paper end to
// end: the feature relations are materialised into the engine and the exact
// meta-query from the figure ("find all queries that correlate water
// salinity with water temperature data") is executed over them.
func TestMaterializeFigure1MetaQuery(t *testing.T) {
	s := storage.NewStore()
	// Two queries that correlate salinity with temperature...
	target1 := put(t, s,
		"SELECT salinity, temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x AND WaterSalinity.salinity > 2 AND WaterTemp.temp < 18",
		"alice", storage.VisibilityPublic)
	target2 := put(t, s,
		"SELECT s.salinity, t.temp FROM WaterSalinity s JOIN WaterTemp t ON s.loc_x = t.loc_x",
		"bob", storage.VisibilityPublic)
	// ...and some that do not.
	put(t, s, "SELECT temp FROM WaterTemp WHERE temp > 20", "alice", storage.VisibilityPublic)
	put(t, s, "SELECT city FROM CityLocations", "bob", storage.VisibilityPublic)
	put(t, s, "SELECT salinity FROM WaterSalinity WHERE depth > 10", "carol", storage.VisibilityPublic)

	eng, _, err := materializeFeatureRelations(context.Background(), s.Snapshot(), admin, tenthSession)
	if err != nil {
		t.Fatalf("materializeFeatureRelations: %v", err)
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
	s := storage.NewStore()
	id := put(t, s, "SELECT temp FROM WaterTemp WHERE temp < 18", "alice", storage.VisibilityPublic)
	if err := s.UpdateStats(id, storage.RuntimeStats{ResultRows: 10}); err != nil {
		t.Fatalf("UpdateStats: %v", err)
	}
	if err := s.Annotate(id, alice, storage.Annotation{Text: "Seattle lakes survey"}); err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	eng, _, err := materializeFeatureRelations(context.Background(), s.Snapshot(), admin, tenthSession)
	if err != nil {
		t.Fatalf("materializeFeatureRelations: %v", err)
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
	s := storage.NewStore()
	put(t, s, "SELECT temp FROM WaterTemp", "alice", storage.VisibilityPrivate)
	put(t, s, "SELECT salinity FROM WaterSalinity", "bob", storage.VisibilityPublic)

	eng, _, err := materializeFeatureRelations(context.Background(), s.Snapshot(), carol, tenthSession)
	if err != nil {
		t.Fatalf("materializeFeatureRelations: %v", err)
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
	eng, _, err := materializeFeatureRelations(context.Background(), storage.NewStore().Snapshot(), admin, tenthSession)
	if err != nil {
		t.Fatalf("materializeFeatureRelations: %v", err)
	}
	res, err := eng.Execute("SELECT COUNT(*) FROM Queries")
	if err != nil {
		t.Fatalf("count query: %v", err)
	}
	if res.Rows[0][0].Int != 0 {
		t.Errorf("count = %v, want 0", res.Rows[0][0])
	}
}
