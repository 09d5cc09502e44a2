package engine

import (
	"fmt"
	"strings"
)

// binding describes one column of a relation's shape: the qualifier it is
// visible under (alias or table name), the base table it came from, its
// column name, and where its value lives in a tuple — which of the tuple's
// row references (leaf) and which position of that row (pos).
type binding struct {
	qualifier string
	table     string
	column    string
	leaf, pos int
}

// relation is an intermediate result of the FROM → WHERE pipeline: a column
// shape plus tuples of Row references. A tuple holds one reference per FROM
// leaf that was joined into the relation (a base-table scan or a derived
// table), so a scan is the table's published rows by reference, a filter
// keeps references and a join concatenates the references of its two sides;
// no Value is copied until the projection. All tuples live in one slab, refs,
// tuple-major. A reference that does not reach a column's position — nil, the
// NULL-padded side of an outer join — reads as NULL.
//
// The output of a SELECT is a relation with a single leaf whose references
// are the freshly projected rows, which is also what a derived table scans.
type relation struct {
	cols   []binding
	widths []int // columns of each leaf; len(widths) references make a tuple
	n      int   // tuples
	refs   []Row // n * len(widths) references
}

// leafRelation wraps rows of one width as a single-leaf relation, pointing
// every column at its position in the row.
func leafRelation(cols []binding, rows []Row) *relation {
	for i := range cols {
		cols[i].leaf, cols[i].pos = 0, i
	}
	return &relation{cols: cols, widths: []int{len(cols)}, n: len(rows), refs: rows}
}

// joinedShape returns the shape of left ⋈ right holding n tuples in refs: the
// columns and leaves of left, then those of right.
func joinedShape(left, right *relation, refs []Row, n int) *relation {
	cols := make([]binding, len(left.cols)+len(right.cols))
	copy(cols, left.cols)
	shifted := cols[len(left.cols):]
	copy(shifted, right.cols)
	for i := range shifted {
		shifted[i].leaf += len(left.widths)
	}
	widths := make([]int, 0, len(left.widths)+len(right.widths))
	widths = append(append(widths, left.widths...), right.widths...)
	return &relation{cols: cols, widths: widths, n: n, refs: refs}
}

// tuple returns the references of the i-th tuple.
func (r *relation) tuple(i int) []Row {
	w := len(r.widths)
	return r.refs[i*w : (i+1)*w]
}

func (r *relation) columnNames() []string {
	out := make([]string, len(r.cols))
	for i, b := range r.cols {
		out[i] = b.column
	}
	return out
}

// lookup finds the index of a column reference in the relation. An empty
// qualifier matches any column with that name but must be unambiguous.
func (r *relation) lookup(qualifier, column string) (int, error) {
	found := -1
	for i, b := range r.cols {
		if !strings.EqualFold(b.column, column) {
			continue
		}
		if qualifier != "" && !strings.EqualFold(b.qualifier, qualifier) && !strings.EqualFold(b.table, qualifier) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("%w: %s", ErrAmbiguousColumn, column)
		}
		found = i
	}
	if found < 0 {
		return 0, columnNotFound(qualifier, column)
	}
	return found, nil
}

func columnNotFound(qualifier, column string) error {
	if qualifier != "" {
		column = qualifier + "." + column
	}
	return fmt.Errorf("%w: %s", ErrColumnNotFound, column)
}

// matchesStar reports whether the column is selected by `name.*`.
func (b *binding) matchesStar(name string) bool {
	return strings.EqualFold(b.qualifier, name) || strings.EqualFold(b.table, name)
}

// env is the evaluation environment of one loop: the tuple currently under
// the cursor of a relation, chained to the environments of the enclosing
// statements for correlated sub-queries. A loop allocates one env and moves
// its tuple; the enclosing environments stand still while a sub-query runs.
type env struct {
	rel   *relation
	tuple []Row
	outer *env
}
