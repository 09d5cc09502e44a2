package metaquery

import (
	"fmt"
	"strings"

	"repro/internal/sql"
)

// MaterializeFeatureRelations exposes the Figure 1 relations to the external
// equivalence tests, whose meta-query oracle runs SQL over them.
var MaterializeFeatureRelations = materializeFeatureRelations

// GenerateMetaQuery is the generating half of Partial's oracle: the Figure
// 1-style SQL meta-query a partially written query stands for (§2.2: "the
// CQMS could automatically generate these statements from partially written
// queries"), joining Queries with one DataSources row per table and one
// Attributes row per attribute the text names. Run over the materialised
// relations, it selects exactly what Partial filters from the records.
func GenerateMetaQuery(partialSQL string) (string, error) {
	tables, attrs := sql.PartialNames(partialSQL)
	if len(tables) == 0 && len(attrs) == 0 {
		return "", fmt.Errorf("metaquery: no tables or attributes found in partial query")
	}
	from := []string{RelQueries + " Q"}
	var where []string
	for i, t := range tables {
		alias := fmt.Sprintf("D%d", i+1)
		from = append(from, RelDataSources+" "+alias)
		where = append(where, fmt.Sprintf("Q.qid = %s.qid", alias), fmt.Sprintf("%s.relName = '%s'", alias, escapeSQLString(t)))
	}
	for i, a := range attrs {
		alias := fmt.Sprintf("A%d", i+1)
		from = append(from, RelAttributes+" "+alias)
		where = append(where, fmt.Sprintf("Q.qid = %s.qid", alias), fmt.Sprintf("%s.attrName = '%s'", alias, escapeSQLString(a)))
	}
	return "SELECT DISTINCT Q.qid, Q.qText FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND "), nil
}

// escapeSQLString doubles single quotes for inclusion in a SQL literal.
func escapeSQLString(s string) string { return strings.ReplaceAll(s, "'", "''") }
