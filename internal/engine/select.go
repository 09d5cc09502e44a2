package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sql"
)

// execSelect evaluates a SELECT statement against the catalog. The outer
// environment (possibly nil) supplies bindings for correlated sub-queries.
// The result is a single-leaf relation of freshly projected rows.
func (e *Engine) execSelect(stmt *sql.SelectStmt, outer *env) (*relation, error) {
	rel, err := e.execSelectCore(stmt, outer)
	if err != nil {
		return nil, err
	}
	if stmt.Compound != nil {
		right, err := e.execSelect(stmt.Compound.Right, outer)
		if err != nil {
			return nil, err
		}
		rel, err = applyCompound(stmt.Compound.Op, stmt.Compound.All, rel, right)
		if err != nil {
			return nil, err
		}
	}
	return rel, nil
}

func (e *Engine) execSelectCore(stmt *sql.SelectStmt, outer *env) (*relation, error) {
	// 1. Evaluate FROM into a single joined relation, pushing down WHERE
	//    conjuncts where possible.
	conjuncts := splitConjuncts(stmt.Where)
	source, usedConjuncts, err := e.buildFrom(stmt.From, conjuncts, outer)
	if err != nil {
		return nil, err
	}

	// 2. Apply the remaining WHERE conjuncts.
	remaining := make([]sql.Expr, 0, len(conjuncts))
	for i, c := range conjuncts {
		if !usedConjuncts[i] {
			remaining = append(remaining, c)
		}
	}
	if source, err = e.filter(source, remaining, outer); err != nil {
		return nil, err
	}

	// 3. Aggregation or plain projection, either of which also applies ORDER
	//    BY, because it may reference columns that are not projected. This is
	//    the one place values are copied.
	var out *relation
	if needsAggregation(stmt) {
		out, err = e.execAggregate(stmt, source, outer)
	} else {
		out, err = e.execProject(stmt, source, outer)
	}
	if err != nil {
		return nil, err
	}

	// 4. DISTINCT, then LIMIT/OFFSET.
	if stmt.Distinct {
		out.setRows(distinctRows(out.refs))
	}
	if stmt.Limit != nil {
		out.setRows(applyLimit(out.refs, stmt.Limit))
	}
	return out, nil
}

// setRows replaces the rows of a single-leaf relation.
func (r *relation) setRows(rows []Row) { r.refs, r.n = rows, len(rows) }

// splitConjuncts splits a WHERE tree on top-level ANDs.
func splitConjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sql.BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []sql.Expr{e}
}

// buildFrom evaluates the FROM list into one relation. It returns a parallel
// slice marking which WHERE conjuncts were consumed by push-down or joins.
func (e *Engine) buildFrom(from []sql.TableRef, conjuncts []sql.Expr, outer *env) (*relation, []bool, error) {
	used := make([]bool, len(conjuncts))
	if len(from) == 0 {
		// SELECT without FROM: a single tuple of no references so expressions
		// evaluate once.
		return &relation{n: 1}, used, nil
	}
	var acc *relation
	for _, ref := range from {
		rel, err := e.evalTableRef(ref, outer)
		if err != nil {
			return nil, nil, err
		}
		// Push down single-relation conjuncts onto rel before joining.
		rel, err = e.pushDownFilters(rel, conjuncts, used, outer)
		if err != nil {
			return nil, nil, err
		}
		if acc == nil {
			acc = rel
			continue
		}
		acc = joinRelations(acc, rel, conjuncts, used)
	}
	// A final push-down pass over the accumulated relation catches conjuncts
	// that reference columns from several relations already joined.
	acc, err := e.pushDownFilters(acc, conjuncts, used, outer)
	if err != nil {
		return nil, nil, err
	}
	return acc, used, nil
}

// pushDownFilters applies every not-yet-used conjunct that references only
// columns available in rel (and contains no sub-query) as a filter on rel.
func (e *Engine) pushDownFilters(rel *relation, conjuncts []sql.Expr, used []bool, outer *env) (*relation, error) {
	var applicable []sql.Expr
	for i, c := range conjuncts {
		if !used[i] && !exprHasSubquery(c) && exprResolvable(c, rel) {
			applicable = append(applicable, c)
			used[i] = true
		}
	}
	return e.filter(rel, applicable, outer)
}

// filter keeps the tuples of rel that satisfy every condition, by reference.
func (e *Engine) filter(rel *relation, conds []sql.Expr, outer *env) (*relation, error) {
	if len(conds) == 0 {
		return rel, nil
	}
	c := &compiler{eng: e, rel: rel, outer: outer}
	preds := make([]predicate, len(conds))
	for i, cond := range conds {
		preds[i] = c.predicate(cond)
	}
	en := &env{rel: rel, outer: outer}
	keep := make([]bool, rel.n)
	kept := 0
tuples:
	for i := range keep {
		en.tuple = rel.tuple(i)
		for _, p := range preds {
			ok, err := p(en)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue tuples
			}
		}
		keep[i] = true
		kept++
	}
	if kept == rel.n {
		return rel, nil
	}
	refs := make([]Row, 0, kept*len(rel.widths))
	for i, k := range keep {
		if k {
			refs = append(refs, rel.tuple(i)...)
		}
	}
	return &relation{cols: rel.cols, widths: rel.widths, n: kept, refs: refs}, nil
}

// exprResolvable reports whether every column reference in the expression can
// be resolved against rel.
func exprResolvable(e sql.Expr, rel *relation) bool {
	ok := true
	sql.WalkExpr(e, func(x sql.Expr) bool {
		if c, isCol := x.(*sql.ColumnRef); isCol {
			if _, err := rel.lookup(c.Table, c.Name); err != nil {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

func exprHasSubquery(e sql.Expr) bool {
	has := false
	sql.WalkExpr(e, func(x sql.Expr) bool {
		switch n := x.(type) {
		case *sql.InExpr:
			if n.Select != nil {
				has = true
			}
		case *sql.ExistsExpr, *sql.SubqueryExpr:
			has = true
		}
		return !has
	})
	return has
}

// evalTableRef evaluates a single FROM item.
func (e *Engine) evalTableRef(ref sql.TableRef, outer *env) (*relation, error) {
	switch t := ref.(type) {
	case *sql.TableName:
		table, err := e.catalog.Table(t.Name)
		if err != nil {
			return nil, err
		}
		if t.Alias != "" {
			return tableRelation(table, t.Alias), nil
		}
		return tableRelation(table, t.Name), nil
	case *sql.SubqueryRef:
		rel, err := e.execSelect(t.Select, outer)
		if err != nil {
			return nil, err
		}
		if t.Alias != "" {
			for i := range rel.cols {
				rel.cols[i].qualifier = t.Alias
			}
		}
		return rel, nil
	case *sql.JoinExpr:
		left, err := e.evalTableRef(t.Left, outer)
		if err != nil {
			return nil, err
		}
		right, err := e.evalTableRef(t.Right, outer)
		if err != nil {
			return nil, err
		}
		return e.explicitJoin(t, left, right, outer)
	default:
		return nil, fmt.Errorf("engine: unsupported table reference %T", ref)
	}
}

// equiJoinColumns reports whether cond is `a = b` with one column in left and
// the other in right, in either orientation, and which columns they are.
func equiJoinColumns(cond sql.Expr, left, right *relation) (lcol, rcol int, ok bool) {
	b, isBinary := cond.(*sql.BinaryExpr)
	if !isBinary || b.Op != "=" {
		return 0, 0, false
	}
	x, xok := b.Left.(*sql.ColumnRef)
	y, yok := b.Right.(*sql.ColumnRef)
	if !xok || !yok {
		return 0, 0, false
	}
	for _, pair := range [2][2]*sql.ColumnRef{{x, y}, {y, x}} {
		lcol, lerr := left.lookup(pair[0].Table, pair[0].Name)
		rcol, rerr := right.lookup(pair[1].Table, pair[1].Name)
		if lerr == nil && rerr == nil {
			return lcol, rcol, true
		}
	}
	return 0, 0, false
}

// joinRelations joins two relations from a comma-separated FROM list, using
// the first available equi-join conjunct as a hash-join key; otherwise it
// falls back to a cross product.
func joinRelations(left, right *relation, conjuncts []sql.Expr, used []bool) *relation {
	for i, c := range conjuncts {
		if used[i] {
			continue
		}
		if lcol, rcol, ok := equiJoinColumns(c, left, right); ok {
			used[i] = true
			return hashJoin(left, right, lcol, rcol)
		}
	}
	return crossJoin(left, right)
}

// usingQualifier resolves a USING column by name in the left side of a join,
// which may itself be a join: the qualifier of the one column of that name. A
// name no column has falls back to the first qualifier, so the ON condition
// reports it as a missing qualified column. A side with no columns at all
// (every column dropped) has no qualifier to fall back to.
func usingQualifier(left *relation, col string) (string, error) {
	if len(left.cols) == 0 {
		return "", columnNotFound("", col)
	}
	i, err := left.lookup("", col)
	if errors.Is(err, ErrColumnNotFound) {
		err = nil // i is 0
	}
	return left.cols[i].qualifier, err
}

// explicitJoin evaluates JOIN ... ON / USING with inner and outer variants.
func (e *Engine) explicitJoin(j *sql.JoinExpr, left, right *relation, outer *env) (*relation, error) {
	// Build the ON condition from USING if necessary.
	on := j.On
	if on == nil && len(j.Using) > 0 {
		for _, col := range j.Using {
			lq, err := usingQualifier(left, col)
			if err != nil {
				return nil, err
			}
			if len(right.cols) == 0 {
				return nil, columnNotFound("", col)
			}
			cond := &sql.BinaryExpr{Op: "=",
				Left:  &sql.ColumnRef{Table: lq, Name: col},
				Right: &sql.ColumnRef{Table: right.cols[0].qualifier, Name: col}}
			if on == nil {
				on = cond
			} else {
				on = &sql.BinaryExpr{Op: "AND", Left: on, Right: cond}
			}
		}
	}

	if j.Type == sql.JoinCross || on == nil {
		return crossJoin(left, right), nil
	}

	// A hash join for a single equality between the two sides.
	if j.Type == sql.JoinInner {
		if lcol, rcol, ok := equiJoinColumns(on, left, right); ok {
			return hashJoin(left, right, lcol, rcol), nil
		}
	}

	// General nested-loop join with outer-join null padding: the candidate
	// pair is assembled in scratch and kept, by reference, if ON holds.
	lw, rw := len(left.widths), len(right.widths)
	combined := joinedShape(left, right, nil, 0)
	cond := (&compiler{eng: e, rel: combined, outer: outer}).predicate(on)
	scratch := make([]Row, lw+rw)
	en := &env{rel: combined, tuple: scratch, outer: outer}
	leftMatched := make([]bool, left.n)
	rightMatched := make([]bool, right.n)
	for l := range leftMatched {
		copy(scratch, left.tuple(l))
		for r := range rightMatched {
			copy(scratch[lw:], right.tuple(r))
			ok, err := cond(en)
			if err != nil {
				return nil, err
			}
			if ok {
				combined.refs = append(combined.refs, scratch...)
				leftMatched[l] = true
				rightMatched[r] = true
			}
		}
	}
	if j.Type == sql.JoinLeft || j.Type == sql.JoinFull {
		for l, matched := range leftMatched {
			if !matched {
				combined.refs = append(append(combined.refs, left.tuple(l)...), make([]Row, rw)...)
			}
		}
	}
	if j.Type == sql.JoinRight || j.Type == sql.JoinFull {
		for r, matched := range rightMatched {
			if !matched {
				combined.refs = append(append(combined.refs, make([]Row, lw)...), right.tuple(r)...)
			}
		}
	}
	combined.n = len(combined.refs) / (lw + rw)
	return combined, nil
}

// ---------------------------------------------------------------------------
// Projection, aggregation, ordering
// ---------------------------------------------------------------------------

// selectItem is one compiled element of the SELECT list: an expression (an
// expr in a plain SELECT, a groupExpr in an aggregating one), or the columns
// a star copies from the tuple under the cursor.
type selectItem[E any] struct {
	eval E
	star bool      // `*`: every row of the tuple in full
	cols []binding // `t.*`: the columns it selects
}

// orderKey is one compiled ORDER BY key: the select-list position whose alias
// it names (-1 if none), else an expression over the source.
type orderKey[E any] struct {
	slot int
	eval E
}

// selectList compiles the SELECT list and the ORDER BY keys of a statement.
func selectList[E any](stmt *sql.SelectStmt, source *relation, compile func(sql.Expr) E) ([]selectItem[E], []orderKey[E]) {
	items := make([]selectItem[E], len(stmt.Columns))
	for i, item := range stmt.Columns {
		switch {
		case item.Star:
			items[i].star = true
		case item.TableStar != "":
			items[i].cols = []binding{}
			for _, b := range source.cols {
				if b.matchesStar(item.TableStar) {
					items[i].cols = append(items[i].cols, b)
				}
			}
		default:
			items[i].eval = compile(item.Expr)
		}
	}
	keys := make([]orderKey[E], len(stmt.OrderBy))
	for i, o := range stmt.OrderBy {
		keys[i] = orderKey[E]{slot: -1, eval: compile(o.Expr)}
		if c, ok := o.Expr.(*sql.ColumnRef); ok && c.Table == "" {
			for slot, item := range stmt.Columns {
				if item.Alias != "" && strings.EqualFold(item.Alias, c.Name) {
					keys[i].slot = slot
					break
				}
			}
		}
	}
	return items, keys
}

// appendStar appends every column of the tuple, NULLs for a padded side.
func appendStar(dst []Value, source *relation, tuple []Row) []Value {
	for leaf, row := range tuple {
		if row != nil {
			dst = append(dst, row...)
			continue
		}
		for i := 0; i < source.widths[leaf]; i++ {
			dst = append(dst, Null)
		}
	}
	return dst
}

func appendColumns(dst []Value, cols []binding, tuple []Row) []Value {
	for _, b := range cols {
		if row := tuple[b.leaf]; b.pos < len(row) {
			dst = append(dst, row[b.pos])
		} else {
			dst = append(dst, Null)
		}
	}
	return dst
}

// execProject projects the SELECT list over each source tuple (no
// aggregation): every output row is a window of one slab of values sized from
// the input, and so are the ORDER BY keys.
func (e *Engine) execProject(stmt *sql.SelectStmt, source *relation, outer *env) (*relation, error) {
	outCols := projectionColumns(stmt, source)
	items, order := selectList(stmt, source, (&compiler{eng: e, rel: source, outer: outer}).compile)
	en := &env{rel: source, outer: outer}

	slab := make([]Value, 0, source.n*len(outCols))
	keys := make([]Value, 0, source.n*len(order))
	rows := make([]Row, source.n)
	for i := range rows {
		en.tuple = source.tuple(i)
		start := len(slab)
		for _, item := range items {
			switch {
			case item.star:
				slab = appendStar(slab, source, en.tuple)
			case item.cols != nil:
				slab = appendColumns(slab, item.cols, en.tuple)
			default:
				v, err := item.eval(en)
				if err != nil {
					return nil, err
				}
				slab = append(slab, v)
			}
		}
		row := Row(slab[start:len(slab):len(slab)])
		rows[i] = row
		// ORDER BY keys are computed against the source so ordering can
		// reference non-projected columns; an output alias wins.
		for _, o := range order {
			if o.slot >= 0 && o.slot < len(row) {
				keys = append(keys, row[o.slot])
				continue
			}
			v, err := o.eval(en)
			if err != nil {
				return nil, err
			}
			keys = append(keys, v)
		}
	}
	return leafRelation(outCols, sortRows(rows, keys, stmt.OrderBy)), nil
}

// sortRows returns the rows in ORDER BY order; keys holds len(order) values
// per row. The sort is stable. No rows come back as nil, which is what a
// Result has always held for an empty SELECT.
func sortRows(rows []Row, keys []Value, order []sql.OrderItem) []Row {
	if len(rows) == 0 {
		return nil
	}
	if len(order) == 0 || len(rows) == 1 {
		return rows
	}
	s := &rowSorter{perm: make([]int32, len(rows)), keys: keys, order: order}
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	sort.Stable(s)
	sorted := make([]Row, len(rows))
	for i, p := range s.perm {
		sorted[i] = rows[p]
	}
	return sorted
}

// rowSorter sorts a permutation of row numbers by the rows' keys.
type rowSorter struct {
	perm  []int32
	keys  []Value
	order []sql.OrderItem
}

func (s *rowSorter) Len() int      { return len(s.perm) }
func (s *rowSorter) Swap(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] }
func (s *rowSorter) Less(i, j int) bool {
	k, a, b := len(s.order), int(s.perm[i]), int(s.perm[j])
	return compareKeys(s.keys[a*k:(a+1)*k], s.keys[b*k:(b+1)*k], s.order)
}

func compareKeys(a, b Row, order []sql.OrderItem) bool {
	for i := range order {
		if i >= len(a) || i >= len(b) {
			break
		}
		av, bv := a[i], b[i]
		if av.IsNull() && bv.IsNull() {
			continue
		}
		if av.IsNull() {
			return !order[i].Desc
		}
		if bv.IsNull() {
			return order[i].Desc
		}
		c, err := av.Compare(bv)
		if err != nil || c == 0 {
			continue
		}
		if order[i].Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

// projectionColumns computes the output bindings for the SELECT list.
func projectionColumns(stmt *sql.SelectStmt, source *relation) []binding {
	var out []binding
	for _, item := range stmt.Columns {
		switch {
		case item.Star:
			out = append(out, source.cols...)
		case item.TableStar != "":
			for _, b := range source.cols {
				if b.matchesStar(item.TableStar) {
					out = append(out, b)
				}
			}
		default:
			name := item.Alias
			if name == "" {
				if c, ok := item.Expr.(*sql.ColumnRef); ok {
					name = c.Name
				} else {
					name = item.Expr.SQL()
				}
			}
			out = append(out, binding{column: name})
		}
	}
	return out
}

// needsAggregation reports whether the SELECT uses GROUP BY or aggregate
// functions in its SELECT list or HAVING clause.
func needsAggregation(stmt *sql.SelectStmt) bool {
	if len(stmt.GroupBy) > 0 || stmt.Having != nil {
		return true
	}
	agg := false
	for _, item := range stmt.Columns {
		if item.Expr == nil {
			continue
		}
		sql.WalkExpr(item.Expr, func(x sql.Expr) bool {
			if f, ok := x.(*sql.FuncCall); ok && f.IsAggregate() {
				agg = true
				return false
			}
			return true
		})
	}
	return agg
}

// group is one group of an aggregating SELECT: its first tuple (-1 if it has
// none) and how many it has. The others follow through grouping.next.
type group struct{ head, size int32 }

// grouping partitions the tuples of a relation into groups without moving
// them: each tuple records the next tuple of its group, so a group is walked
// in source order and an aggregate folds over it with no list of rows or
// argument values.
type grouping struct {
	c      *compiler
	source *relation
	en     *env    // cursor for aggregate arguments and representative tuples
	next   []int32 // the tuple after this one in its group, -1 at the end
}

// partition evaluates the GROUP BY keys of every tuple and returns the groups
// in order of first appearance. A query with aggregates but no GROUP BY has
// exactly one group, even if the source is empty.
func (g *grouping) partition(groupBy []sql.Expr) ([]group, error) {
	n := g.source.n
	g.next = make([]int32, n)
	if len(groupBy) == 0 {
		for i := range g.next {
			g.next[i] = int32(i + 1)
		}
		if n == 0 {
			return []group{{head: -1}}, nil
		}
		g.next[n-1] = -1
		return []group{{head: 0, size: int32(n)}}, nil
	}
	var (
		keys   = g.c.compileAll(groupBy)
		key    = make([]Value, len(keys))
		index  keyIndex
		groups []group
		tails  []int32
	)
	for i := range g.next {
		g.en.tuple = g.source.tuple(i)
		for k, eval := range keys {
			v, err := eval(g.en)
			if err != nil {
				return nil, err
			}
			key[k] = v
		}
		g.next[i] = -1
		if id, fresh := index.add(key); fresh {
			groups = append(groups, group{head: int32(i), size: 1})
			tails = append(tails, int32(i))
		} else {
			g.next[tails[id]] = int32(i)
			tails[id] = int32(i)
			groups[id].size++
		}
	}
	return groups, nil
}

// representative returns the tuple non-aggregate expressions of a group see:
// its first, or all NULLs for the empty group.
func (g *grouping) representative(gr group) []Row {
	if gr.head < 0 {
		return make([]Row, len(g.source.widths))
	}
	return g.source.tuple(int(gr.head))
}

// groupExpr is an expression bound to a grouping: aggregate calls fold over
// the group's tuples, plain column references evaluate against the group's
// representative tuple.
type groupExpr func(gr group) (Value, error)

func (g *grouping) compile(e sql.Expr) groupExpr {
	switch n := e.(type) {
	case *sql.FuncCall:
		if n.IsAggregate() {
			return g.compileAggregate(n)
		}
	case *sql.BinaryExpr:
		// Allow expressions over aggregates, e.g. AVG(x) > 10, SUM(a)/COUNT(*).
		left, right, op := g.compile(n.Left), g.compile(n.Right), n.Op
		return func(gr group) (Value, error) {
			l, err := left(gr)
			if err != nil {
				return Null, err
			}
			r, err := right(gr)
			if err != nil {
				return Null, err
			}
			return binaryValues(op, l, r)
		}
	case *sql.UnaryExpr:
		inner, op := g.compile(n.Expr), n.Op
		return func(gr group) (Value, error) {
			v, err := inner(gr)
			if err != nil {
				return Null, err
			}
			switch op {
			case "-":
				return arith("-", NewInt(0), v)
			case "NOT":
				return unaryValue(op, v)
			default:
				return v, nil
			}
		}
	}
	// Non-aggregate expression: evaluate against the representative tuple.
	eval := g.c.compile(e)
	return func(gr group) (Value, error) {
		g.en.tuple = g.representative(gr)
		return eval(g.en)
	}
}

func (g *grouping) compileAggregate(f *sql.FuncCall) groupExpr {
	name := strings.ToUpper(f.Name)
	fail := func(err error) groupExpr {
		return func(group) (Value, error) { return Null, err }
	}
	if f.Star {
		if name != "COUNT" {
			return fail(fmt.Errorf("engine: %s(*) is not supported", name))
		}
		return func(gr group) (Value, error) { return NewInt(int64(gr.size)), nil }
	}
	if len(f.Args) != 1 {
		return fail(fmt.Errorf("engine: aggregate %s expects exactly one argument", name))
	}
	arg, distinct := g.c.compile(f.Args[0]), f.Distinct
	return func(gr group) (Value, error) { return g.fold(name, distinct, arg, gr) }
}

// fold computes one aggregate over one group in a single pass. An argument
// that fails to evaluate fails the aggregate at once; a value the aggregate
// cannot take (SUM of text, MIN of incomparable values) fails it only after
// every argument has evaluated, so which error a statement reports does not
// depend on the order of the two kinds within the group.
func (g *grouping) fold(name string, distinct bool, arg expr, gr group) (Value, error) {
	var (
		seen   map[valueKey]struct{}
		count  int64
		sum    float64
		allInt = true
		best   Value
		bad    error
	)
	for i := gr.head; i >= 0; i = g.next[i] {
		g.en.tuple = g.source.tuple(int(i))
		v, err := arg(g.en)
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			continue
		}
		if distinct {
			k := keyOf(&v)
			if _, dup := seen[k]; dup {
				continue
			}
			if seen == nil {
				seen = make(map[valueKey]struct{})
			}
			seen[k] = struct{}{}
		}
		count++
		if bad != nil {
			continue
		}
		switch name {
		case "SUM", "AVG":
			f, ok := v.asFloat()
			if !ok {
				bad = fmt.Errorf("engine: %s over non-numeric values", name)
				continue
			}
			if v.Type != TypeInt {
				allInt = false
			}
			sum += f
		case "MIN", "MAX":
			if count == 1 {
				best = v
				continue
			}
			c, err := v.Compare(best)
			if err != nil {
				bad = err
			} else if (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
				best = v
			}
		}
	}
	switch {
	case bad != nil:
		return Null, bad
	case name == "COUNT":
		return NewInt(count), nil
	case count == 0:
		return Null, nil
	case name == "AVG":
		return NewFloat(sum / float64(count)), nil
	case name == "SUM" && allInt:
		return NewInt(int64(sum)), nil
	case name == "SUM":
		return NewFloat(sum), nil
	default:
		return best, nil
	}
}

// execAggregate evaluates a grouped (or implicitly single-group) query: one
// output row per group that passes HAVING, in one slab sized from the number
// of groups.
func (e *Engine) execAggregate(stmt *sql.SelectStmt, source *relation, outer *env) (*relation, error) {
	g := &grouping{
		c:      &compiler{eng: e, rel: source, outer: outer},
		source: source,
		en:     &env{rel: source, outer: outer},
	}
	groups, err := g.partition(stmt.GroupBy)
	if err != nil {
		return nil, err
	}
	outCols := projectionColumns(stmt, source)
	items, order := selectList(stmt, source, g.compile)
	var having groupExpr
	if stmt.Having != nil {
		having = g.compile(stmt.Having)
	}

	slab := make([]Value, 0, len(groups)*len(outCols))
	keys := make([]Value, 0, len(groups)*len(order))
	rows := make([]Row, 0, len(groups))
	for _, gr := range groups {
		if having != nil {
			v, err := having(gr)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue
			}
			if b, err := v.Coerce(TypeBool); err != nil || !b.Bool {
				continue
			}
		}
		start := len(slab)
		for _, item := range items {
			switch {
			case item.star:
				// SELECT * with GROUP BY projects the first row of the group.
				slab = appendStar(slab, source, g.representative(gr))
			case item.cols != nil:
				if gr.size > 0 {
					slab = appendColumns(slab, item.cols, g.representative(gr))
				}
			default:
				v, err := item.eval(gr)
				if err != nil {
					return nil, err
				}
				slab = append(slab, v)
			}
		}
		row := Row(slab[start:len(slab):len(slab)])
		rows = append(rows, row)
		for _, o := range order {
			if o.slot >= 0 && o.slot < len(row) {
				keys = append(keys, row[o.slot])
				continue
			}
			v, err := o.eval(gr)
			if err != nil {
				return nil, err
			}
			keys = append(keys, v)
		}
	}
	return leafRelation(outCols, sortRows(rows, keys, stmt.OrderBy)), nil
}

// ---------------------------------------------------------------------------
// DISTINCT, LIMIT, set operations
// ---------------------------------------------------------------------------

func distinctRows(rows []Row) []Row {
	var seen keyIndex
	out := rows[:0:0]
	for _, r := range rows {
		if _, fresh := seen.add(r); fresh {
			out = append(out, r)
		}
	}
	return out
}

func applyLimit(rows []Row, limit *sql.LimitClause) []Row {
	start := int(limit.Offset)
	if start < 0 {
		start = 0
	}
	if start > len(rows) {
		return nil
	}
	end := len(rows)
	if limit.Count >= 0 && start+int(limit.Count) < end {
		end = start + int(limit.Count)
	}
	return rows[start:end]
}

func applyCompound(op string, all bool, left, right *relation) (*relation, error) {
	if len(left.cols) != len(right.cols) {
		return nil, fmt.Errorf("engine: %s operands have different column counts (%d vs %d)", op, len(left.cols), len(right.cols))
	}
	var rows []Row
	switch op {
	case "UNION":
		rows = append(append([]Row{}, left.refs...), right.refs...)
	case "EXCEPT", "INTERSECT":
		var inRight keyIndex
		for _, r := range right.refs {
			inRight.add(r)
		}
		for _, r := range left.refs {
			if inRight.has(r) == (op == "INTERSECT") {
				rows = append(rows, r)
			}
		}
	default:
		return nil, fmt.Errorf("engine: unknown set operation %s", op)
	}
	if !all {
		rows = distinctRows(rows)
	}
	left.setRows(rows)
	return left, nil
}
