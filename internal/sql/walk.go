package sql

// Visitor is called for every expression node reachable from a statement or
// expression. Returning false stops descent into the node's children.
type Visitor func(e Expr) bool

// WalkExpr applies v to e and, unless v returns false, to all of e's child
// expressions (including expressions inside nested sub-queries).
func WalkExpr(e Expr, v Visitor) {
	if e == nil {
		return
	}
	if !v(e) {
		return
	}
	switch n := e.(type) {
	case *BinaryExpr:
		WalkExpr(n.Left, v)
		WalkExpr(n.Right, v)
	case *UnaryExpr:
		WalkExpr(n.Expr, v)
	case *FuncCall:
		for _, a := range n.Args {
			WalkExpr(a, v)
		}
	case *InExpr:
		WalkExpr(n.Expr, v)
		for _, item := range n.List {
			WalkExpr(item, v)
		}
		if n.Select != nil {
			WalkSelectExprs(n.Select, v)
		}
	case *BetweenExpr:
		WalkExpr(n.Expr, v)
		WalkExpr(n.Low, v)
		WalkExpr(n.High, v)
	case *LikeExpr:
		WalkExpr(n.Expr, v)
		WalkExpr(n.Pattern, v)
	case *IsNullExpr:
		WalkExpr(n.Expr, v)
	case *ExistsExpr:
		if n.Select != nil {
			WalkSelectExprs(n.Select, v)
		}
	case *SubqueryExpr:
		if n.Select != nil {
			WalkSelectExprs(n.Select, v)
		}
	case *CaseExpr:
		WalkExpr(n.Operand, v)
		for _, w := range n.Whens {
			WalkExpr(w.When, v)
			WalkExpr(w.Then, v)
		}
		WalkExpr(n.Else, v)
	}
}

// WalkSelectExprs applies v to every expression appearing anywhere in the
// SELECT statement, including within derived tables and chained set
// operations.
func WalkSelectExprs(s *SelectStmt, v Visitor) {
	if s == nil {
		return
	}
	for _, item := range s.Columns {
		if item.Expr != nil {
			WalkExpr(item.Expr, v)
		}
	}
	for _, t := range s.From {
		walkTableRefExprs(t, v)
	}
	WalkExpr(s.Where, v)
	for _, g := range s.GroupBy {
		WalkExpr(g, v)
	}
	WalkExpr(s.Having, v)
	for _, o := range s.OrderBy {
		WalkExpr(o.Expr, v)
	}
	if s.Compound != nil {
		WalkSelectExprs(s.Compound.Right, v)
	}
}

func walkTableRefExprs(t TableRef, v Visitor) {
	switch ref := t.(type) {
	case *JoinExpr:
		walkTableRefExprs(ref.Left, v)
		walkTableRefExprs(ref.Right, v)
		WalkExpr(ref.On, v)
	case *SubqueryRef:
		WalkSelectExprs(ref.Select, v)
	}
}

// TableRefVisitor is called for every TableRef in a FROM clause tree.
type TableRefVisitor func(t TableRef) bool

// WalkTableRefs applies v to every table reference in the statement's FROM
// clauses, including those of nested sub-queries in FROM position.
func WalkTableRefs(s *SelectStmt, v TableRefVisitor) {
	if s == nil {
		return
	}
	for _, t := range s.From {
		walkTableRef(t, v)
	}
	if s.Compound != nil {
		WalkTableRefs(s.Compound.Right, v)
	}
}

func walkTableRef(t TableRef, v TableRefVisitor) {
	if t == nil || !v(t) {
		return
	}
	switch ref := t.(type) {
	case *JoinExpr:
		walkTableRef(ref.Left, v)
		walkTableRef(ref.Right, v)
	case *SubqueryRef:
		WalkTableRefs(ref.Select, v)
	}
}

// Subqueries returns every SELECT nested anywhere inside s (derived tables,
// IN/EXISTS/scalar sub-queries and set-operation branches), each once, not
// including s itself.
func Subqueries(s *SelectStmt) []*SelectStmt {
	var out []*SelectStmt
	collectSubqueries(s, &out, false)
	return out
}

func collectSubqueries(s *SelectStmt, out *[]*SelectStmt, includeSelf bool) {
	if s == nil {
		return
	}
	if includeSelf {
		*out = append(*out, s)
	}
	for _, t := range s.From {
		collectTableRefSubqueries(t, out)
	}
	collectExprSubqueries(s.Where, out)
	for _, g := range s.GroupBy {
		collectExprSubqueries(g, out)
	}
	collectExprSubqueries(s.Having, out)
	for _, item := range s.Columns {
		collectExprSubqueries(item.Expr, out)
	}
	for _, o := range s.OrderBy {
		collectExprSubqueries(o.Expr, out)
	}
	if s.Compound != nil {
		collectSubqueries(s.Compound.Right, out, true)
	}
}

func collectTableRefSubqueries(t TableRef, out *[]*SelectStmt) {
	switch ref := t.(type) {
	case *JoinExpr:
		collectTableRefSubqueries(ref.Left, out)
		collectTableRefSubqueries(ref.Right, out)
		collectExprSubqueries(ref.On, out)
	case *SubqueryRef:
		collectSubqueries(ref.Select, out, true)
	}
}

// collectExprSubqueries walks e down to its sub-queries and hands each to
// collectSubqueries, which owns everything below it: the walk itself must not
// descend into a SELECT, or every level of nesting would be collected once
// per level above it.
func collectExprSubqueries(e Expr, out *[]*SelectStmt) {
	WalkExpr(e, func(e Expr) bool {
		switch n := e.(type) {
		case *InExpr:
			if n.Select != nil {
				collectExprSubqueries(n.Expr, out)
				collectSubqueries(n.Select, out, true)
				return false
			}
		case *ExistsExpr:
			collectSubqueries(n.Select, out, true)
			return false
		case *SubqueryExpr:
			collectSubqueries(n.Select, out, true)
			return false
		}
		return true
	})
}
