package metaquery

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Feature relation names materialised by materializeFeatureRelations. They
// follow Figure 1 of the paper, extended with runtime statistics and
// annotations so SQL meta-queries can also reference them.
const (
	RelQueries     = "Queries"
	RelDataSources = "DataSources"
	RelAttributes  = "Attributes"
	RelPredicates  = "Predicates"
	RelQueryStats  = "QueryStats"
	RelAnnotations = "QueryAnnotations"
)

// materializeFeatureRelations builds an in-memory engine catalog containing
// the feature relations of Figure 1 for every query of view visible to the
// principal:
//
//	Queries(qid, qText, quser, qgroup, sessionId, valid)
//	DataSources(qid, relName)
//	Attributes(qid, attrName, relName, clause)
//	Predicates(qid, attrName, relName, op, const)
//	QueryStats(qid, execMillis, resultRows, qualityScore)
//	QueryAnnotations(qid, author, note)
//
// sessionId is what sessionOf answers for the record: the session detector
// is its one home, so the relation is current as of the last commit. A user's
// SQL meta-query (such as the one in Figure 1) runs against the returned
// engine; nothing else builds the relations. The scan stops soon after ctx is
// done, and the context's error is returned.
func materializeFeatureRelations(ctx context.Context, view *storage.View, p storage.Principal, sessionOf func(*storage.QueryRecord) int64) (*engine.Engine, error) {
	eng := engine.New()
	ddl := []string{
		fmt.Sprintf("CREATE TABLE %s (qid INT PRIMARY KEY, qText TEXT, quser TEXT, qgroup TEXT, sessionId INT, valid BOOL)", RelQueries),
		fmt.Sprintf("CREATE TABLE %s (qid INT, relName TEXT)", RelDataSources),
		fmt.Sprintf("CREATE TABLE %s (qid INT, attrName TEXT, relName TEXT, clause TEXT)", RelAttributes),
		fmt.Sprintf("CREATE TABLE %s (qid INT, attrName TEXT, relName TEXT, op TEXT, const TEXT)", RelPredicates),
		fmt.Sprintf("CREATE TABLE %s (qid INT, execMillis FLOAT, resultRows INT, qualityScore FLOAT)", RelQueryStats),
		fmt.Sprintf("CREATE TABLE %s (qid INT, author TEXT, note TEXT)", RelAnnotations),
	}
	for _, stmt := range ddl {
		if _, err := eng.Execute(stmt); err != nil {
			return nil, fmt.Errorf("metaquery: creating feature relation: %w", err)
		}
	}

	cat := eng.Catalog()
	var queriesRows, sourcesRows, attrsRows, predsRows, statsRows, annRows []engine.Row
	view.Scan(p, storage.ScanWithContext(ctx, func(rec *storage.QueryRecord) bool {
		qid := engine.NewInt(int64(rec.ID))
		queriesRows = append(queriesRows, engine.Row{
			qid, engine.NewText(rec.Text), engine.NewText(rec.User), engine.NewText(rec.Group),
			engine.NewInt(sessionOf(rec)), engine.NewBool(rec.Valid),
		})
		for _, t := range rec.Tables {
			sourcesRows = append(sourcesRows, engine.Row{qid, engine.NewText(t)})
		}
		seen := make(map[sql.AttributeRow]bool)
		for _, a := range rec.Attributes {
			if seen[a] {
				continue
			}
			seen[a] = true
			attrsRows = append(attrsRows, engine.Row{
				qid, engine.NewText(a.Attr), engine.NewText(a.Rel), engine.NewText(a.Clause),
			})
		}
		for _, pr := range rec.Predicates {
			predsRows = append(predsRows, engine.Row{
				qid, engine.NewText(pr.Attr), engine.NewText(pr.Rel),
				engine.NewText(pr.Op), engine.NewText(pr.Const),
			})
		}
		statsRows = append(statsRows, engine.Row{
			qid,
			engine.NewFloat(float64(rec.Stats.ExecTime.Microseconds()) / 1000.0),
			engine.NewInt(int64(rec.Stats.ResultRows)),
			engine.NewFloat(rec.Quality()),
		})
		for _, ann := range rec.Annotations {
			annRows = append(annRows, engine.Row{qid, engine.NewText(ann.Author), engine.NewText(ann.Text)})
		}
		return true
	}))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	inserts := []struct {
		table string
		rows  []engine.Row
	}{
		{RelQueries, queriesRows},
		{RelDataSources, sourcesRows},
		{RelAttributes, attrsRows},
		{RelPredicates, predsRows},
		{RelQueryStats, statsRows},
		{RelAnnotations, annRows},
	}
	for _, ins := range inserts {
		if len(ins.rows) == 0 {
			continue
		}
		if _, err := cat.Insert(ins.table, nil, ins.rows); err != nil {
			return nil, fmt.Errorf("metaquery: populating %s: %w", ins.table, err)
		}
	}
	return eng, nil
}
