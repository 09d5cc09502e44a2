package engine

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/sql"
)

// Result is the outcome of executing a statement: for SELECTs the column
// names and rows, for DML the affected-row count. Elapsed is the wall-clock
// execution time, which the Query Profiler records as a runtime feature.
type Result struct {
	Columns      []string
	Rows         []Row
	RowsAffected int64
	Elapsed      time.Duration
}

// Cardinality returns the number of result rows (0 for DML).
func (r *Result) Cardinality() int { return len(r.Rows) }

// Engine is the embedded DBMS: a catalog plus a query executor. It is safe
// for concurrent use; DDL/DML serialise on the catalog's lock and publish
// copy-on-write tables, so a SELECT reads the tables it fetched, by
// reference, whatever is written meanwhile.
type Engine struct {
	catalog *Catalog
}

// New returns an engine with an empty catalog.
func New() *Engine {
	return &Engine{catalog: NewCatalog()}
}

// NewWithCatalog returns an engine over an existing catalog, used by tests
// and the workload generator to share pre-populated data.
func NewWithCatalog(c *Catalog) *Engine {
	return &Engine{catalog: c}
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *Catalog { return e.catalog }

// Execute parses and executes a single SQL statement.
func (e *Engine) Execute(query string) (*Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.ExecuteStmt(stmt)
}

// MustExecute executes a statement and panics on error. It is intended for
// test fixtures and example programs that load static data.
func (e *Engine) MustExecute(query string) *Result {
	res, err := e.Execute(query)
	if err != nil {
		panic(fmt.Sprintf("engine: MustExecute(%q): %v", query, err))
	}
	return res
}

// ExecuteStmt executes an already-parsed statement.
func (e *Engine) ExecuteStmt(stmt sql.Statement) (*Result, error) {
	start := time.Now()
	res, err := e.dispatch(stmt)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

func (e *Engine) dispatch(stmt sql.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		rel, err := e.execSelect(s, nil)
		if err != nil {
			return nil, err
		}
		return &Result{Columns: rel.columnNames(), Rows: rel.refs}, nil
	case *sql.InsertStmt:
		return e.execInsert(s)
	case *sql.UpdateStmt:
		return e.execUpdate(s)
	case *sql.DeleteStmt:
		return e.execDelete(s)
	case *sql.CreateTableStmt:
		return e.execCreateTable(s)
	case *sql.DropTableStmt:
		if err := e.catalog.DropTable(s.Table, s.IfExists); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.AlterTableStmt:
		return e.execAlterTable(s)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

func (e *Engine) execCreateTable(s *sql.CreateTableStmt) (*Result, error) {
	schema := &Schema{Table: s.Table}
	for _, c := range s.Columns {
		typ, err := TypeFromName(c.Type)
		if err != nil {
			return nil, err
		}
		schema.Columns = append(schema.Columns, Column{
			Name: c.Name, Type: typ, PrimaryKey: c.PrimaryKey, NotNull: c.NotNull,
		})
	}
	if err := e.catalog.CreateTable(schema, s.IfNotExists); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) execAlterTable(s *sql.AlterTableStmt) (*Result, error) {
	switch s.Action {
	case sql.AlterAddColumn:
		typ, err := TypeFromName(s.Column.Type)
		if err != nil {
			return nil, err
		}
		if err := e.catalog.AddColumn(s.Table, Column{Name: s.Column.Name, Type: typ}); err != nil {
			return nil, err
		}
	case sql.AlterDropColumn:
		if err := e.catalog.DropColumn(s.Table, s.OldName); err != nil {
			return nil, err
		}
	case sql.AlterRenameColumn:
		if err := e.catalog.RenameColumn(s.Table, s.OldName, s.NewName); err != nil {
			return nil, err
		}
	case sql.AlterRenameTable:
		if err := e.catalog.RenameTable(s.Table, s.NewName); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("engine: unsupported ALTER TABLE action %d", s.Action)
	}
	return &Result{}, nil
}

func (e *Engine) execInsert(s *sql.InsertStmt) (*Result, error) {
	var rows []Row
	if s.Select != nil {
		rel, err := e.execSelect(s.Select, nil)
		if err != nil {
			return nil, err
		}
		rows = rel.refs
	} else {
		c := &compiler{eng: e, rel: &relation{}}
		en := &env{rel: c.rel}
		for _, exprRow := range s.Rows {
			row := make(Row, len(exprRow))
			for i, ex := range exprRow {
				v, err := c.compile(ex)(en)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			rows = append(rows, row)
		}
	}
	n, err := e.catalog.Insert(s.Table, s.Columns, rows)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: int64(n)}, nil
}

// execUpdate builds the table's new rows under the catalog's write lock — a
// fresh copy of every row it changes, the published row itself where it does
// not — and swaps them in only if the whole statement succeeded.
func (e *Engine) execUpdate(s *sql.UpdateStmt) (*Result, error) {
	e.catalog.mu.Lock()
	defer e.catalog.mu.Unlock()
	t, ok := e.catalog.tables[lowerKey(s.Table)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTableNotFound, s.Table)
	}
	rel := tableRelation(t, t.Schema.Table)
	c := &compiler{eng: e, rel: rel}
	var where predicate
	if s.Where != nil {
		where = c.predicate(s.Where)
	}
	targets := make([]int, len(s.Set))
	values := make([]expr, len(s.Set))
	for i, a := range s.Set {
		targets[i] = t.Schema.ColumnIndex(a.Column)
		values[i] = c.compile(a.Value)
	}
	updated := slices.Clone(t.Rows)
	en := &env{rel: rel}
	var affected int64
	for i := range updated {
		en.tuple = updated[i : i+1]
		if where != nil {
			ok, err := where(en)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		// Each assignment sees the ones before it, as it would in place.
		updated[i] = updated[i].Clone()
		for j, idx := range targets {
			if idx < 0 {
				return nil, fmt.Errorf("%w: %s.%s", ErrColumnNotFound, s.Table, s.Set[j].Column)
			}
			v, err := values[j](en)
			if err != nil {
				return nil, err
			}
			cv, err := v.Coerce(t.Schema.Columns[idx].Type)
			if err != nil {
				return nil, err
			}
			updated[i][idx] = cv
		}
		affected++
	}
	e.catalog.tables[lowerKey(s.Table)] = &Table{Schema: t.Schema, Rows: updated}
	return &Result{RowsAffected: affected}, nil
}

func (e *Engine) execDelete(s *sql.DeleteStmt) (*Result, error) {
	e.catalog.mu.Lock()
	defer e.catalog.mu.Unlock()
	t, ok := e.catalog.tables[lowerKey(s.Table)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTableNotFound, s.Table)
	}
	rel := tableRelation(t, t.Schema.Table)
	var kept []Row
	if s.Where != nil {
		where := (&compiler{eng: e, rel: rel}).predicate(s.Where)
		en := &env{rel: rel}
		for i, row := range t.Rows {
			en.tuple = t.Rows[i : i+1]
			remove, err := where(en)
			if err != nil {
				return nil, err
			}
			if !remove {
				kept = append(kept, row)
			}
		}
	}
	e.catalog.tables[lowerKey(s.Table)] = &Table{Schema: t.Schema, Rows: kept}
	return &Result{RowsAffected: int64(len(t.Rows) - len(kept))}, nil
}

// tableRelation is the table's rows as a relation, by reference, its columns
// visible under qualifier.
func tableRelation(t *Table, qualifier string) *relation {
	cols := make([]binding, len(t.Schema.Columns))
	for i, c := range t.Schema.Columns {
		cols[i] = binding{qualifier: qualifier, table: t.Schema.Table, column: c.Name}
	}
	return leafRelation(cols, t.Rows)
}

func lowerKey(name string) string {
	b := []byte(name)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}
