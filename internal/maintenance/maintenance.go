// Package maintenance implements the CQMS Query Maintenance component
// (Figure 4, §4.4): the background process that keeps the Query Storage
// up-to-date as the underlying database evolves. It identifies queries
// invalidated by schema changes, attempts automatic repair for renames,
// flags runtime statistics that have become stale, and selectively
// re-executes queries to refresh statistics. A pass writes only what changed:
// over an unchanged catalog it commits nothing. The per-query quality score is
// a function of the record (storage.QueryRecord.Quality), computed on read.
package maintenance

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/storage"
)

// A pass repairs what a rename broke, and re-executes up to maxRefreshPerScan
// stale queries (the paper notes that re-running everything is "overly
// expensive"); the most recent are refreshed first. A query's statistics go
// stale when a referenced table's row count moves by more than
// staleRowDeltaRatio between two passes.
const (
	maxRefreshPerScan  = 50
	staleRowDeltaRatio = 0.25
)

// Invalidation describes one query flagged as broken by schema evolution.
type Invalidation struct {
	ID     storage.QueryID
	Reason string
}

// Repair describes one automatically repaired query.
type Repair struct {
	ID      storage.QueryID
	OldText string
	NewText string
	Change  string
}

// Report summarises one maintenance scan.
type Report struct {
	Checked        int
	Invalidated    []Invalidation
	Repaired       []Repair
	StatsFlagged   []storage.QueryID
	StatsRefreshed []storage.QueryID
	Elapsed        time.Duration
}

// Maintainer runs maintenance scans over a store backed by an engine.
type Maintainer struct {
	eng   *engine.Engine
	store *storage.Store
	// lastRowCounts remembers per-table row counts from the previous scan to
	// detect data-distribution changes.
	lastRowCounts map[string]int
}

// New returns a maintainer.
func New(eng *engine.Engine, store *storage.Store) *Maintainer {
	return &Maintainer{eng: eng, store: store, lastRowCounts: map[string]int{}}
}

// Scan runs one full maintenance pass: schema-change validation with repair,
// then stale-statistics detection and refresh. It returns a report of
// everything it did.
func (m *Maintainer) Scan() (*Report, error) {
	start := time.Now()
	report := &Report{}
	admin := storage.Principal{Admin: true}
	records := m.store.Snapshot().Records(admin)
	report.Checked = len(records)

	schemas := m.eng.Catalog().Schemas()
	changes := m.eng.Catalog().Changes(0)

	currentCounts := make(map[string]int)
	for name := range schemas {
		if n, err := m.eng.Catalog().RowCount(name); err == nil {
			currentCounts[name] = n
		}
	}

	for _, rec := range records {
		if len(rec.Tables) == 0 {
			continue
		}
		// 1. Validity against the current schema.
		reason, repairable := validate(rec, schemas, changes)
		if reason != "" {
			if repairable != nil {
				if rep, err := m.tryRepair(rec, repairable, schemas); err == nil {
					report.Repaired = append(report.Repaired, *rep)
					continue
				}
			}
			if err := m.store.MarkInvalid(rec.ID, reason); err != nil {
				return nil, fmt.Errorf("maintenance: flagging query %d: %w", rec.ID, err)
			}
			report.Invalidated = append(report.Invalidated, Invalidation{ID: rec.ID, Reason: reason})
			continue
		}
		if !rec.Valid && !(strings.HasPrefix(rec.InvalidReason, refreshFailed) && rec.Stats.Error != "") {
			// Previously flagged but now consistent again (e.g. the column
			// was re-added): clear the flag. A query whose refresh failed
			// stays invalid until a refresh succeeds.
			if err := m.store.MarkValid(rec.ID); err != nil {
				return nil, err
			}
		}

		// 2. Staleness of runtime statistics: schema newer than the recorded
		// run, or the referenced tables' cardinalities changed materially.
		if m.isStale(rec, currentCounts) {
			if err := m.store.MarkStatsStale(rec.ID, true); err != nil {
				return nil, err
			}
			report.StatsFlagged = append(report.StatsFlagged, rec.ID)
		}
	}

	// 3. Refresh statistics for (a bounded number of) stale queries.
	refreshed, err := m.RefreshStats(maxRefreshPerScan)
	if err != nil {
		return nil, err
	}
	report.StatsRefreshed = refreshed

	m.lastRowCounts = currentCounts
	report.Elapsed = time.Since(start)
	return report, nil
}

// validate checks the query's referenced tables and columns against the
// current schema. It returns a human-readable reason when the query is
// broken, plus the schema change that broke it when that change is a rename
// (and hence repairable).
func validate(rec *storage.QueryRecord, schemas map[string]*engine.Schema, changes []engine.SchemaChange) (string, *engine.SchemaChange) {
	findSchema := func(table string) *engine.Schema {
		for name, s := range schemas {
			if strings.EqualFold(name, table) {
				return s
			}
		}
		return nil
	}
	for _, table := range rec.Tables {
		s := findSchema(table)
		if s == nil {
			if ch := findRename(changes, engine.ChangeRenameTable, table, ""); ch != nil {
				return fmt.Sprintf("table %s renamed to %s", table, ch.NewName), ch
			}
			return fmt.Sprintf("table %s no longer exists", table), nil
		}
		// Columns the query references on this table.
		for _, attr := range rec.Attributes {
			if !strings.EqualFold(attr.Rel, table) {
				continue
			}
			if s.ColumnIndex(attr.Attr) < 0 {
				if ch := findRename(changes, engine.ChangeRenameColumn, table, attr.Attr); ch != nil {
					return fmt.Sprintf("column %s.%s renamed to %s", table, attr.Attr, ch.NewName), ch
				}
				return fmt.Sprintf("column %s.%s no longer exists", table, attr.Attr), nil
			}
		}
	}
	return "", nil
}

// findRename locates the most recent rename change matching the missing
// table or column.
func findRename(changes []engine.SchemaChange, kind engine.SchemaChangeKind, table, column string) *engine.SchemaChange {
	for i := len(changes) - 1; i >= 0; i-- {
		ch := changes[i]
		if ch.Kind != kind {
			continue
		}
		switch kind {
		case engine.ChangeRenameTable:
			if strings.EqualFold(ch.Table, table) {
				return &ch
			}
		case engine.ChangeRenameColumn:
			if strings.EqualFold(ch.Table, table) && strings.EqualFold(ch.Column, column) {
				return &ch
			}
		}
	}
	return nil
}

// tryRepair rewrites the query for a rename change, verifies that the
// rewritten query parses and references only existing tables and columns,
// and replaces the stored text.
func (m *Maintainer) tryRepair(rec *storage.QueryRecord, ch *engine.SchemaChange, schemas map[string]*engine.Schema) (*Repair, error) {
	var newText string
	var err error
	switch ch.Kind {
	case engine.ChangeRenameTable:
		newText, err = RewriteTableName(rec.Text, ch.Table, ch.NewName)
	case engine.ChangeRenameColumn:
		newText, err = RewriteColumnName(rec.Text, ch.Table, ch.Column, ch.NewName)
	default:
		return nil, fmt.Errorf("maintenance: change %v is not repairable", ch.Kind)
	}
	if err != nil {
		return nil, err
	}
	updated, err := storage.NewRecordFromSQL(newText)
	if err != nil {
		return nil, err
	}
	// Validate the rewritten query against the current schema before
	// committing the repair.
	if reason, _ := validate(updated, schemas, nil); reason != "" {
		return nil, fmt.Errorf("maintenance: repair still invalid: %s", reason)
	}
	if err := m.store.ReplaceText(rec.ID, updated); err != nil {
		return nil, err
	}
	if err := m.store.MarkValid(rec.ID); err != nil {
		return nil, err
	}
	return &Repair{
		ID: rec.ID, OldText: rec.Text, NewText: newText,
		Change: fmt.Sprintf("%s %s -> %s", ch.Kind, ch.Table+nonEmptyDot(ch.Column), ch.NewName),
	}, nil
}

func nonEmptyDot(column string) string {
	if column == "" {
		return ""
	}
	return "." + column
}

// isStale decides whether a query whose statistics are not yet flagged should
// be: the schema of a referenced table has changed since the query ran, or the
// row count of a referenced table moved by more than staleRowDeltaRatio since
// the last scan. An already-flagged query is not flagged again.
func (m *Maintainer) isStale(rec *storage.QueryRecord, currentCounts map[string]int) bool {
	if rec.StatsStale {
		return false
	}
	if rec.Stats.SchemaVersion < m.eng.Catalog().Version() {
		// Only consider it stale if one of its tables actually changed after
		// the query ran. A rename changes no row, so it leaves a (repaired)
		// query's statistics as they were.
		for _, ch := range m.eng.Catalog().Changes(rec.Stats.SchemaVersion) {
			if ch.Kind == engine.ChangeRenameColumn || ch.Kind == engine.ChangeRenameTable {
				continue
			}
			for _, t := range rec.Tables {
				if strings.EqualFold(ch.Table, t) {
					return true
				}
			}
		}
	}
	for _, t := range rec.Tables {
		prev, okPrev := m.lastRowCounts[t]
		cur, okCur := currentCounts[t]
		if !okPrev || !okCur || prev == 0 {
			continue
		}
		delta := float64(cur-prev) / float64(prev)
		if delta < 0 {
			delta = -delta
		}
		if delta > staleRowDeltaRatio {
			return true
		}
	}
	return false
}

// refreshFailed begins the reason of the one invalid flag a matching schema
// does not clear: a failed statistics refresh.
const refreshFailed = "re-execution failed: "

// RefreshStats re-executes up to max stale queries (most recently issued
// first), updating their runtime statistics; their output samples stay as
// they were. A query that fails to execute is marked invalid. It returns the
// IDs refreshed.
func (m *Maintainer) RefreshStats(max int) ([]storage.QueryID, error) {
	admin := storage.Principal{Admin: true}
	stale := m.store.StaleQueries()
	if max > 0 && len(stale) > max {
		// Most recent queries first: higher IDs are newer.
		stale = stale[len(stale)-max:]
	}
	var refreshed []storage.QueryID
	for _, id := range stale {
		rec, err := m.store.Get(id, admin)
		if err != nil {
			continue
		}
		res, execErr := m.eng.Execute(rec.Text)
		stats := storage.RuntimeStats{
			SchemaVersion: m.eng.Catalog().Version(),
			ExecutedAt:    time.Now(),
		}
		if execErr != nil {
			stats.Error = execErr.Error()
			if err := m.store.UpdateStats(id, stats); err != nil {
				return refreshed, err
			}
			if err := m.store.MarkInvalid(id, refreshFailed+execErr.Error()); err != nil {
				return refreshed, err
			}
			continue
		}
		stats.ExecTime = res.Elapsed
		stats.ResultRows = res.Cardinality()
		stats.ResultColumns = len(res.Columns)
		if err := m.store.UpdateStats(id, stats); err != nil {
			return refreshed, err
		}
		refreshed = append(refreshed, id)
	}
	return refreshed, nil
}

// ---------------------------------------------------------------------------
// Query rewriting for repairs
// ---------------------------------------------------------------------------

// RewriteTableName renames every reference to oldName in the query to
// newName — every FROM entry, including those of joins, derived tables and
// expression sub-queries, and every column qualified by the bare table name —
// and returns the rewritten SQL text.
func RewriteTableName(queryText, oldName, newName string) (string, error) {
	stmt, err := sql.Parse(queryText)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return "", fmt.Errorf("maintenance: only SELECT queries can be repaired")
	}
	renameFrom := func(s *sql.SelectStmt) {
		sql.WalkTableRefs(s, func(t sql.TableRef) bool {
			if tn, ok := t.(*sql.TableName); ok && strings.EqualFold(tn.Name, oldName) {
				tn.Name = newName
			}
			return true
		})
	}
	renameFrom(sel)
	// The expression walk reaches every ON condition and every sub-query. The
	// FROM walk above already covers derived tables, so only an expression's
	// sub-query still needs its FROM renamed.
	sql.WalkSelectExprs(sel, func(e sql.Expr) bool {
		switch n := e.(type) {
		case *sql.ColumnRef:
			if strings.EqualFold(n.Table, oldName) {
				n.Table = newName
			}
		case *sql.InExpr:
			renameFrom(n.Select)
		case *sql.ExistsExpr:
			renameFrom(n.Select)
		case *sql.SubqueryExpr:
			renameFrom(n.Select)
		}
		return true
	})
	return sel.SQL(), nil
}

// RewriteColumnName renames references to table.oldCol (or unqualified oldCol
// when the query references only that table) to newCol.
func RewriteColumnName(queryText, table, oldCol, newCol string) (string, error) {
	stmt, err := sql.Parse(queryText)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return "", fmt.Errorf("maintenance: only SELECT queries can be repaired")
	}
	tables, aliases := sql.TablesOf(sel)
	aliasesOfTable := map[string]bool{strings.ToLower(table): true}
	for alias, base := range aliases {
		if strings.EqualFold(base, table) {
			aliasesOfTable[strings.ToLower(alias)] = true
		}
	}
	singleTable := len(tables) == 1 && strings.EqualFold(tables[0], table)

	// One walk reaches every expression: the select list, every ON of a join
	// chain, WHERE, GROUP BY, HAVING, ORDER BY and all of a sub-query's.
	sql.WalkSelectExprs(sel, func(x sql.Expr) bool {
		c, ok := x.(*sql.ColumnRef)
		if !ok || !strings.EqualFold(c.Name, oldCol) {
			return true
		}
		if (c.Table == "" && singleTable) || (c.Table != "" && aliasesOfTable[strings.ToLower(c.Table)]) {
			c.Name = newCol
		}
		return true
	})
	return sel.SQL(), nil
}
