package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel errors returned by the catalog and executor.
var (
	// ErrTableNotFound is returned when a referenced table does not exist.
	ErrTableNotFound = errors.New("engine: table not found")
	// ErrColumnNotFound is returned when a referenced column does not exist.
	ErrColumnNotFound = errors.New("engine: column not found")
	// ErrTableExists is returned when creating a table that already exists.
	ErrTableExists = errors.New("engine: table already exists")
	// ErrAmbiguousColumn is returned when an unqualified column name matches
	// more than one table in scope.
	ErrAmbiguousColumn = errors.New("engine: ambiguous column")

	errNullComparison = errors.New("engine: comparison with NULL")
)

// Column describes one column of a table.
type Column struct {
	Name string
	Type Type
	// PrimaryKey and NotNull are informational; the engine does not enforce
	// uniqueness but the workload generator and maintenance component use
	// them.
	PrimaryKey bool
	NotNull    bool
}

// Schema describes a table's structure.
type Schema struct {
	Table   string
	Columns []Column
}

// ColumnIndex returns the position of the named column (case-insensitive) or
// -1 if absent.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// ColumnNames returns the column names in order.
func (s *Schema) ColumnNames() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	out := &Schema{Table: s.Table, Columns: make([]Column, len(s.Columns))}
	copy(out.Columns, s.Columns)
	return out
}

// Table is an in-memory relation: a schema plus row storage. A Table the
// catalog has published is never written again — not the struct, its Schema,
// the Rows slice, nor any Row: a statement that changes a table builds what it
// changes anew and swaps a new Table in under the catalog's lock, so a reader
// works on whichever Table it fetched, for as long as it likes, with no copy.
// INSERT alone extends the published Rows array in place, past the length any
// earlier reader holds.
type Table struct {
	Schema *Schema
	Rows   []Row
}

// SchemaChangeKind enumerates the kinds of schema evolution tracked by the
// catalog for the Query Maintenance component.
type SchemaChangeKind int

// Schema change kinds.
const (
	ChangeCreateTable SchemaChangeKind = iota
	ChangeDropTable
	ChangeAddColumn
	ChangeDropColumn
	ChangeRenameColumn
	ChangeRenameTable
)

// String returns a readable label for the change kind.
func (k SchemaChangeKind) String() string {
	switch k {
	case ChangeCreateTable:
		return "CREATE TABLE"
	case ChangeDropTable:
		return "DROP TABLE"
	case ChangeAddColumn:
		return "ADD COLUMN"
	case ChangeDropColumn:
		return "DROP COLUMN"
	case ChangeRenameColumn:
		return "RENAME COLUMN"
	case ChangeRenameTable:
		return "RENAME TABLE"
	default:
		return "UNKNOWN"
	}
}

// SchemaChange records one schema evolution event. The Query Maintenance
// component compares query timestamps against these events to flag queries
// invalidated by schema changes (paper §4.4).
type SchemaChange struct {
	Kind      SchemaChangeKind
	Table     string
	Column    string // affected column for column-level changes
	NewName   string // for renames
	Timestamp time.Time
	Version   int64
}

// Catalog holds all tables and the schema-change log. It is safe for
// concurrent use: its tables are copy-on-write (see Table). Writers
// serialise on writeMu, which a statement holds from its read of a published
// table to the swap of its next version, and take mu only for the swap, so
// anything a writer evaluates meanwhile — a subquery over the same table —
// reads under mu like any SELECT.
type Catalog struct {
	writeMu sync.Mutex
	mu      sync.RWMutex
	tables  map[string]*Table // keyed by lower-cased name
	changes []SchemaChange
	version int64
	// epoch advances with every swap of a table (setTable), under mu.
	epoch atomic.Uint64
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Version returns the current schema version. The version increments on
// every schema change.
func (c *Catalog) Version() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// Epoch returns the catalog's data epoch. It advances at every change to a
// table's rows or schema — INSERT, UPDATE and DELETE as well as DDL, where
// Version counts schema changes only — so a value computed from the tables
// holds for as long as the epoch read before computing it is current. The
// epoch moves under the lock every read of a table takes, so the tables a
// statement reads after an epoch are at least that new.
func (c *Catalog) Epoch() uint64 { return c.epoch.Load() }

// Changes returns a copy of the schema-change log, optionally filtered to
// changes after the given version.
func (c *Catalog) Changes(afterVersion int64) []SchemaChange {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []SchemaChange
	for _, ch := range c.changes {
		if ch.Version > afterVersion {
			out = append(out, ch)
		}
	}
	return out
}

// TableNames returns the names of all tables, sorted.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		names = append(names, t.Schema.Table)
	}
	sort.Strings(names)
	return names
}

// Table returns the named table as of now; it is read-only.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	return t, nil
}

// SchemaOf returns a copy of the named table's schema.
func (c *Catalog) SchemaOf(name string) (*Schema, error) {
	t, err := c.Table(name)
	if err != nil {
		return nil, err
	}
	return t.Schema.Clone(), nil
}

// Schemas returns a copy of every table schema keyed by table name.
func (c *Catalog) Schemas() map[string]*Schema {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]*Schema, len(c.tables))
	for _, t := range c.tables {
		out[t.Schema.Table] = t.Schema.Clone()
	}
	return out
}

// lockWrite takes the writers' lock and the table lock for a writer that
// swaps under both at once; the returned function releases them.
func (c *Catalog) lockWrite() (unlock func()) {
	c.writeMu.Lock()
	c.mu.Lock()
	return func() {
		c.mu.Unlock()
		c.writeMu.Unlock()
	}
}

// publish swaps in a table's next version. The caller holds writeMu.
func (c *Catalog) publish(t *Table) {
	c.mu.Lock()
	c.setTable(strings.ToLower(t.Schema.Table), t)
	c.mu.Unlock()
}

// setTable is the one write of the table map: it swaps in the table stored
// under key, or drops it when t is nil, and advances the data epoch. The
// caller holds mu.
func (c *Catalog) setTable(key string, t *Table) {
	if t == nil {
		delete(c.tables, key)
	} else {
		c.tables[key] = t
	}
	c.epoch.Add(1)
}

func (c *Catalog) recordChange(ch SchemaChange) {
	c.version++
	ch.Version = c.version
	ch.Timestamp = time.Now()
	c.changes = append(c.changes, ch)
}

// CreateTable adds a new table with the given schema.
func (c *Catalog) CreateTable(schema *Schema, ifNotExists bool) error {
	defer c.lockWrite()()
	key := strings.ToLower(schema.Table)
	if _, ok := c.tables[key]; ok {
		if ifNotExists {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrTableExists, schema.Table)
	}
	c.setTable(key, &Table{Schema: schema.Clone()})
	c.recordChange(SchemaChange{Kind: ChangeCreateTable, Table: schema.Table})
	return nil
}

// DropTable removes a table.
func (c *Catalog) DropTable(name string, ifExists bool) error {
	defer c.lockWrite()()
	key := strings.ToLower(name)
	t, ok := c.tables[key]
	if !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("%w: %s", ErrTableNotFound, name)
	}
	c.setTable(key, nil)
	c.recordChange(SchemaChange{Kind: ChangeDropTable, Table: t.Schema.Table})
	return nil
}

// AddColumn appends a column to an existing table, filling existing rows
// with NULL.
func (c *Catalog) AddColumn(table string, col Column) error {
	defer c.lockWrite()()
	key := strings.ToLower(table)
	t, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrTableNotFound, table)
	}
	if t.Schema.ColumnIndex(col.Name) >= 0 {
		return fmt.Errorf("engine: column %s already exists in %s", col.Name, table)
	}
	width := len(t.Schema.Columns)
	rows := make([]Row, len(t.Rows))
	for i, row := range t.Rows {
		rows[i] = append(row[:width:width], Null)
	}
	c.setTable(key, &Table{
		Schema: &Schema{Table: t.Schema.Table, Columns: append(t.Schema.Columns[:width:width], col)},
		Rows:   rows,
	})
	c.recordChange(SchemaChange{Kind: ChangeAddColumn, Table: t.Schema.Table, Column: col.Name})
	return nil
}

// DropColumn removes a column from an existing table.
func (c *Catalog) DropColumn(table, column string) error {
	defer c.lockWrite()()
	key := strings.ToLower(table)
	t, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrTableNotFound, table)
	}
	idx := t.Schema.ColumnIndex(column)
	if idx < 0 {
		return fmt.Errorf("%w: %s.%s", ErrColumnNotFound, table, column)
	}
	rows := make([]Row, len(t.Rows))
	for i, row := range t.Rows {
		rows[i] = append(row[:idx:idx], row[idx+1:]...)
	}
	c.setTable(key, &Table{
		Schema: &Schema{Table: t.Schema.Table, Columns: append(t.Schema.Columns[:idx:idx], t.Schema.Columns[idx+1:]...)},
		Rows:   rows,
	})
	c.recordChange(SchemaChange{Kind: ChangeDropColumn, Table: t.Schema.Table, Column: column})
	return nil
}

// RenameColumn renames a column of an existing table.
func (c *Catalog) RenameColumn(table, oldName, newName string) error {
	defer c.lockWrite()()
	key := strings.ToLower(table)
	t, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrTableNotFound, table)
	}
	idx := t.Schema.ColumnIndex(oldName)
	if idx < 0 {
		return fmt.Errorf("%w: %s.%s", ErrColumnNotFound, table, oldName)
	}
	renamed := t.Schema.Clone()
	renamed.Columns[idx].Name = newName
	c.setTable(key, &Table{Schema: renamed, Rows: t.Rows})
	c.recordChange(SchemaChange{Kind: ChangeRenameColumn, Table: t.Schema.Table, Column: oldName, NewName: newName})
	return nil
}

// RenameTable renames a table.
func (c *Catalog) RenameTable(oldName, newName string) error {
	defer c.lockWrite()()
	key := strings.ToLower(oldName)
	t, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrTableNotFound, oldName)
	}
	if _, exists := c.tables[strings.ToLower(newName)]; exists {
		return fmt.Errorf("%w: %s", ErrTableExists, newName)
	}
	c.setTable(key, nil)
	c.setTable(strings.ToLower(newName), &Table{Schema: &Schema{Table: newName, Columns: t.Schema.Columns}, Rows: t.Rows})
	c.recordChange(SchemaChange{Kind: ChangeRenameTable, Table: oldName, NewName: newName})
	return nil
}

// Insert appends rows to a table, coercing each value to the column type. The
// rows before one that fails stay inserted.
func (c *Catalog) Insert(table string, columns []string, rows []Row) (int, error) {
	defer c.lockWrite()()
	key := strings.ToLower(table)
	t, ok := c.tables[key]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrTableNotFound, table)
	}
	// Map provided column order onto schema order.
	indexes := make([]int, 0, len(t.Schema.Columns))
	if len(columns) == 0 {
		for i := range t.Schema.Columns {
			indexes = append(indexes, i)
		}
	} else {
		for _, name := range columns {
			idx := t.Schema.ColumnIndex(name)
			if idx < 0 {
				return 0, fmt.Errorf("%w: %s.%s", ErrColumnNotFound, table, name)
			}
			indexes = append(indexes, idx)
		}
	}
	stored, err := t.Rows, error(nil)
	for _, row := range rows {
		var full Row
		if full, err = t.Schema.conform(table, indexes, row); err != nil {
			break
		}
		stored = append(stored, full)
	}
	c.setTable(key, &Table{Schema: t.Schema, Rows: stored})
	return len(stored) - len(t.Rows), err
}

// conform lays the values of a row INSERTed into table out in schema order —
// values[i] goes to column indexes[i], the rest are NULL — coerced to the
// column types.
func (s *Schema) conform(table string, indexes []int, values Row) (Row, error) {
	if len(values) != len(indexes) {
		return nil, fmt.Errorf("engine: INSERT into %s expects %d values, got %d", table, len(indexes), len(values))
	}
	full := make(Row, len(s.Columns))
	for i, idx := range indexes {
		v, err := values[i].Coerce(s.Columns[idx].Type)
		if err != nil {
			return nil, err
		}
		full[idx] = v
	}
	return full, nil
}

// RowCount returns the number of rows stored in the table.
func (c *Catalog) RowCount(table string) (int, error) {
	t, err := c.Table(table)
	if err != nil {
		return 0, err
	}
	return len(t.Rows), nil
}
