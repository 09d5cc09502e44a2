// Package engine implements the in-memory relational DBMS that the CQMS sits
// on top of. The paper assumes "a standard DBMS" under the CQMS server
// (Figure 4); this package is that substrate: a catalog with typed schemas,
// row storage and a query executor supporting the SQL subset of package sql
// (scans, filters, projections, joins, grouping, ordering, limits, nested
// sub-queries and DML/DDL).
//
// The engine also exposes exactly the information the Query Profiler needs:
// result cardinality, execution time and output rows for sampling, plus a
// schema-change log consumed by the Query Maintenance component.
//
// Execution is late-materialising. Catalog tables are copy-on-write: a
// published Table, its Schema, its Rows slice and every Row are never written
// again (DML and ALTER build what they change and swap a new Table in, only if
// the whole statement succeeded), so a scan is the table's rows by reference.
// An intermediate relation (relation.go) is a column shape plus tuples of Row
// references, one reference per joined FROM leaf, all tuples of a relation in
// one slab: a filter keeps references, and the hash, cross and nested-loop
// joins (join.go) concatenate the references of their two sides into a slab
// sized by a count pass. Values are copied exactly once, by the final
// projection or aggregate output (select.go), into one slab sized from the
// input, so Result rows never alias table storage. Expressions are compiled
// per statement (eval.go): each column reference is resolved to a tuple
// position — or to the error resolving it gives, raised only if the reference
// is evaluated — and each literal converted once, and one environment is
// reused per loop. Join, GROUP BY and DISTINCT keys are comparable structs
// with the equality classes of Value.Key (key.go); groups chain tuple numbers
// and fold each aggregate in one pass. The allocation count of a statement is
// therefore a function of its shape, not of the rows it reads or returns
// (TestExecuteAllocationBudget). Plans are the ones the wide-row executor
// chose — same push-down, build side and probe order — and
// testdata/parent_results.jsonl pins the results to that executor's.
package engine

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Type identifies the type of a column or value.
type Type int

// Column and value types.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeText
	TypeBool
	TypeTimestamp
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOL"
	case TypeTimestamp:
		return "TIMESTAMP"
	case TypeNull:
		return "NULL"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// TypeFromName maps the parser's normalised type names onto engine types.
func TypeFromName(name string) (Type, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT":
		return TypeInt, nil
	case "FLOAT", "DOUBLE", "REAL":
		return TypeFloat, nil
	case "TEXT", "VARCHAR", "CHAR":
		return TypeText, nil
	case "BOOL", "BOOLEAN":
		return TypeBool, nil
	case "TIMESTAMP", "DATE":
		return TypeTimestamp, nil
	default:
		return TypeNull, fmt.Errorf("engine: unknown type %q", name)
	}
}

// Value is a single SQL value. The zero Value is NULL.
type Value struct {
	Type  Type
	Int   int64
	Float float64
	Str   string
	Bool  bool
	Time  time.Time
}

// Null is the SQL NULL value.
var Null = Value{Type: TypeNull}

// NewInt returns an INT value.
func NewInt(v int64) Value { return Value{Type: TypeInt, Int: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{Type: TypeFloat, Float: v} }

// NewText returns a TEXT value.
func NewText(v string) Value { return Value{Type: TypeText, Str: v} }

// NewBool returns a BOOL value.
func NewBool(v bool) Value { return Value{Type: TypeBool, Bool: v} }

// NewTimestamp returns a TIMESTAMP value.
func NewTimestamp(v time.Time) Value { return Value{Type: TypeTimestamp, Time: v} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Type == TypeNull }

// String renders the value for display and output sampling.
func (v Value) String() string {
	switch v.Type {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.Int, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case TypeText:
		return v.Str
	case TypeBool:
		if v.Bool {
			return "TRUE"
		}
		return "FALSE"
	case TypeTimestamp:
		return v.Time.UTC().Format(time.RFC3339)
	default:
		return "?"
	}
}

// asFloat converts numeric values to float64 for mixed-type arithmetic.
func (v Value) asFloat() (float64, bool) {
	switch v.Type {
	case TypeInt:
		return float64(v.Int), true
	case TypeFloat:
		return v.Float, true
	default:
		return 0, false
	}
}

// Compare returns -1, 0 or +1 comparing v with other, or an error if the
// values are not comparable. NULL compares only with NULL.
func (v Value) Compare(other Value) (int, error) {
	if v.IsNull() || other.IsNull() {
		if v.IsNull() && other.IsNull() {
			return 0, nil
		}
		return 0, errNullComparison
	}
	// Numeric cross-type comparison.
	if vf, ok := v.asFloat(); ok {
		if of, ok2 := other.asFloat(); ok2 {
			switch {
			case vf < of:
				return -1, nil
			case vf > of:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	if v.Type != other.Type {
		return 0, fmt.Errorf("engine: cannot compare %s with %s", v.Type, other.Type)
	}
	switch v.Type {
	case TypeText:
		return strings.Compare(v.Str, other.Str), nil
	case TypeBool:
		a, b := 0, 0
		if v.Bool {
			a = 1
		}
		if other.Bool {
			b = 1
		}
		return a - b, nil
	case TypeTimestamp:
		switch {
		case v.Time.Before(other.Time):
			return -1, nil
		case v.Time.After(other.Time):
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("engine: cannot compare values of type %s", v.Type)
	}
}

// Equal reports whether two non-NULL values are equal; NULL never equals
// anything including NULL (SQL three-valued logic collapses to false here).
func (v Value) Equal(other Value) bool {
	if v.IsNull() || other.IsNull() {
		return false
	}
	c, err := v.Compare(other)
	return err == nil && c == 0
}

// Key returns a string usable as a map key for grouping and hash joins.
// Numeric values of equal magnitude map to the same key regardless of
// int/float representation.
func (v Value) Key() string {
	var buf [32]byte
	return string(v.appendKey(buf[:0]))
}

// Coerce converts the value to the target column type where a lossless or
// conventional conversion exists (int↔float, text→timestamp in RFC3339 or
// "2006-01-02" form, numeric text→number).
func (v Value) Coerce(target Type) (Value, error) {
	if v.IsNull() || v.Type == target {
		return v, nil
	}
	switch target {
	case TypeInt:
		switch v.Type {
		case TypeFloat:
			return NewInt(int64(v.Float)), nil
		case TypeText:
			n, err := strconv.ParseInt(strings.TrimSpace(v.Str), 10, 64)
			if err != nil {
				return Null, fmt.Errorf("engine: cannot coerce %q to INT", v.Str)
			}
			return NewInt(n), nil
		case TypeBool:
			if v.Bool {
				return NewInt(1), nil
			}
			return NewInt(0), nil
		}
	case TypeFloat:
		switch v.Type {
		case TypeInt:
			return NewFloat(float64(v.Int)), nil
		case TypeText:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.Str), 64)
			if err != nil {
				return Null, fmt.Errorf("engine: cannot coerce %q to FLOAT", v.Str)
			}
			return NewFloat(f), nil
		}
	case TypeText:
		return NewText(v.String()), nil
	case TypeBool:
		switch v.Type {
		case TypeInt:
			return NewBool(v.Int != 0), nil
		case TypeText:
			switch strings.ToUpper(v.Str) {
			case "TRUE", "T", "1":
				return NewBool(true), nil
			case "FALSE", "F", "0":
				return NewBool(false), nil
			}
		}
	case TypeTimestamp:
		if v.Type == TypeText {
			for _, layout := range []string{time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
				if ts, err := time.Parse(layout, v.Str); err == nil {
					return NewTimestamp(ts), nil
				}
			}
			return Null, fmt.Errorf("engine: cannot coerce %q to TIMESTAMP", v.Str)
		}
		if v.Type == TypeInt {
			return NewTimestamp(time.Unix(v.Int, 0).UTC()), nil
		}
	}
	return Null, fmt.Errorf("engine: cannot coerce %s to %s", v.Type, target)
}

// Row is a single tuple.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// RenderRows renders every value of rows with String, in three allocations
// however many rows there are (five past a few dozen values): the rendered
// numbers and timestamps are slices of one string, and the other values'
// strings are the ones String returns.
func RenderRows(rows []Row) [][]string {
	width := 0
	for _, r := range rows {
		width += len(r)
	}
	vals := make([]string, width)
	// ends[k] is where value k's text ends in buf; a value String renders
	// without formatting adds none. Both start on the stack.
	var (
		endsArr [64]int
		bufArr  [512]byte
	)
	ends, buf := endsArr[:0], bufArr[:0]
	if width > len(endsArr) {
		ends, buf = make([]int, 0, width), make([]byte, 0, 16*width)
	}
	k := 0
	for _, r := range rows {
		for _, v := range r {
			switch v.Type {
			case TypeInt:
				buf = strconv.AppendInt(buf, v.Int, 10)
			case TypeFloat:
				buf = strconv.AppendFloat(buf, v.Float, 'g', -1, 64)
			case TypeTimestamp:
				buf = v.Time.UTC().AppendFormat(buf, time.RFC3339)
			default:
				vals[k] = v.String()
			}
			ends = append(ends, len(buf))
			k++
		}
	}
	text, start := string(buf), 0
	out := make([][]string, len(rows))
	k = 0
	for i, r := range rows {
		for range r {
			if end := ends[k]; end > start {
				vals[k], start = text[start:end], end
			}
			k++
		}
		out[i] = vals[k-len(r) : k : k]
	}
	return out
}
