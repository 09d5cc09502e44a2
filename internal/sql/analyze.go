package sql

import (
	"sort"
	"strings"
)

// analyzer is the state of one Analyze call.
type analyzer struct {
	*Analysis
	aliases map[string]string // alias -> base relation
	// outputAliases holds the lower-cased SELECT-list aliases of the outer
	// query, so that references to them (ORDER BY avg_temp) are not reported
	// as base-column uses.
	outputAliases map[string]bool
}

// Analyze extracts syntactic features from a SELECT statement. The statement
// is not modified.
func Analyze(s *SelectStmt) *Analysis {
	a := &analyzer{Analysis: &Analysis{}, outputAliases: make(map[string]bool)}
	if s == nil {
		return a.Analysis
	}
	for _, item := range s.Columns {
		if item.Alias != "" {
			a.outputAliases[strings.ToLower(item.Alias)] = true
		}
	}
	a.Tables, a.aliases = TablesOf(s)
	for _, g := range s.GroupBy {
		if c, ok := g.(*ColumnRef); ok && !a.isOutputAlias(c) {
			a.GroupBy = append(a.GroupBy, qualify(a.resolveTable(c.Table), c.Name))
		}
	}
	a.collectColumns(s)
	a.collectPredicates(s)
	sort.Strings(a.Tables)
	sort.Strings(a.Aggregates)
	return a.Analysis
}

// isOutputAlias reports whether an unqualified column reference actually
// names a SELECT-list alias (e.g. ORDER BY avg_temp) rather than a base
// column. Such references are not stored as attribute features, which keeps
// the maintenance validator from mistaking them for dropped columns.
func (a *analyzer) isOutputAlias(c *ColumnRef) bool {
	return c.Table == "" && a.outputAliases[strings.ToLower(c.Name)]
}

// TablesOf returns the base relations s and every SELECT nested in it
// reference, in order of first appearance, and the relation each alias names.
// WalkTableRefs reaches derived tables itself; Subqueries brings the
// sub-queries in expression position, which it does not descend into.
func TablesOf(s *SelectStmt) (tables []string, aliases map[string]string) {
	aliases = make(map[string]string)
	seen := make(map[string]bool)
	visit := func(t TableRef) bool {
		if tn, ok := t.(*TableName); ok {
			if !seen[tn.Name] {
				seen[tn.Name] = true
				tables = append(tables, tn.Name)
			}
			if tn.Alias != "" {
				aliases[tn.Alias] = tn.Name
			}
		}
		return true
	}
	WalkTableRefs(s, visit)
	for _, sub := range Subqueries(s) {
		WalkTableRefs(sub, visit)
	}
	return tables, aliases
}

// resolveTable maps an alias or table qualifier to a base-table name.
func (a *analyzer) resolveTable(qualifier string) string {
	if qualifier == "" {
		if len(a.Tables) == 1 {
			return a.Tables[0]
		}
		return ""
	}
	if base, ok := a.aliases[qualifier]; ok {
		return base
	}
	return qualifier
}

func (a *analyzer) addColumnUse(c *ColumnRef, clause string) {
	if a.isOutputAlias(c) && clause != "SELECT" {
		return
	}
	a.Attributes = append(a.Attributes, AttributeRow{Attr: c.Name, Rel: a.resolveTable(c.Table), Clause: clause})
}

func (a *analyzer) collectColumns(s *SelectStmt) {
	for _, item := range s.Columns {
		if item.Expr == nil {
			continue
		}
		WalkExpr(item.Expr, func(e Expr) bool {
			switch n := e.(type) {
			case *ColumnRef:
				a.addColumnUse(n, "SELECT")
			case *FuncCall:
				if n.IsAggregate() {
					a.Aggregates = appendUnique(a.Aggregates, strings.ToUpper(n.Name))
				}
			}
			return true
		})
	}
	WalkExpr(s.Where, func(e Expr) bool {
		if c, ok := e.(*ColumnRef); ok {
			a.addColumnUse(c, "WHERE")
		}
		return true
	})
	for _, g := range s.GroupBy {
		WalkExpr(g, func(e Expr) bool {
			if c, ok := e.(*ColumnRef); ok {
				a.addColumnUse(c, "GROUPBY")
			}
			return true
		})
	}
	WalkExpr(s.Having, func(e Expr) bool {
		switch n := e.(type) {
		case *ColumnRef:
			a.addColumnUse(n, "HAVING")
		case *FuncCall:
			if n.IsAggregate() {
				a.Aggregates = appendUnique(a.Aggregates, strings.ToUpper(n.Name))
			}
		}
		return true
	})
	for _, o := range s.OrderBy {
		WalkExpr(o.Expr, func(e Expr) bool {
			if c, ok := e.(*ColumnRef); ok {
				a.addColumnUse(c, "ORDERBY")
			}
			return true
		})
	}
	// Join ON conditions.
	for _, t := range s.From {
		walkTableRefExprs(t, func(e Expr) bool {
			if c, ok := e.(*ColumnRef); ok {
				a.addColumnUse(c, "JOIN")
			}
			return true
		})
	}
}

// collectPredicates walks WHERE, HAVING and ON clauses collecting atomic
// predicates; a comparison of two columns is a join predicate.
func (a *analyzer) collectPredicates(s *SelectStmt) {
	a.collectPredicateTree(s.Where)
	a.collectPredicateTree(s.Having)
	for _, t := range s.From {
		a.collectJoinOn(t)
	}
}

func (a *analyzer) collectJoinOn(t TableRef) {
	switch ref := t.(type) {
	case *JoinExpr:
		a.collectJoinOn(ref.Left)
		a.collectJoinOn(ref.Right)
		a.collectPredicateTree(ref.On)
	case *SubqueryRef:
		// predicates inside derived tables are features of the derived table
		// itself; count them too so that meta-queries over nested queries work.
		if ref.Select != nil {
			a.collectPredicateTree(ref.Select.Where)
		}
	}
}

// collectPredicateTree splits a boolean expression on AND/OR and records each
// atomic comparison.
func (a *analyzer) collectPredicateTree(e Expr) {
	if e == nil {
		return
	}
	switch n := e.(type) {
	case *BinaryExpr:
		if n.Op == "AND" || n.Op == "OR" {
			a.collectPredicateTree(n.Left)
			a.collectPredicateTree(n.Right)
			return
		}
		a.addComparison(n)
	case *UnaryExpr:
		if n.Op == "NOT" {
			a.collectPredicateTree(n.Expr)
		}
	case *InExpr:
		if c, ok := n.Expr.(*ColumnRef); ok {
			val := ""
			if n.Select == nil {
				parts := make([]string, len(n.List))
				for i, item := range n.List {
					parts[i] = item.SQL()
				}
				val = "(" + strings.Join(parts, ", ") + ")"
			} else {
				val = "(subquery)"
			}
			a.addPredicate(c, "IN", val)
		}
	case *BetweenExpr:
		if c, ok := n.Expr.(*ColumnRef); ok {
			a.addPredicate(c, "BETWEEN", n.Low.SQL()+" AND "+n.High.SQL())
		}
	case *LikeExpr:
		if c, ok := n.Expr.(*ColumnRef); ok {
			a.addPredicate(c, "LIKE", n.Pattern.SQL())
		}
	case *IsNullExpr:
		if c, ok := n.Expr.(*ColumnRef); ok {
			op := "ISNULL"
			if n.Not {
				op = "ISNOTNULL"
			}
			a.addPredicate(c, op, "")
		}
	}
}

// addPredicate records the predicate "c op constant".
func (a *analyzer) addPredicate(c *ColumnRef, op, constant string) {
	a.Predicates = append(a.Predicates, PredicateRow{Attr: c.Name, Rel: a.resolveTable(c.Table), Op: op, Const: constant})
}

func (a *analyzer) addComparison(b *BinaryExpr) {
	switch b.Op {
	case "=", "<>", "<", "<=", ">", ">=":
	default:
		return
	}
	lc, lok := b.Left.(*ColumnRef)
	rc, rok := b.Right.(*ColumnRef)
	switch {
	case lok && rok:
		a.Predicates = append(a.Predicates, PredicateRow{
			Attr: lc.Name, Rel: a.resolveTable(lc.Table), Op: b.Op,
			IsJoin: true, RightRel: a.resolveTable(rc.Table), RightAttr: rc.Name,
		})
	case lok:
		a.addPredicate(lc, b.Op, b.Right.SQL())
	case rok:
		// Normalise "18 > temp" to "temp < 18".
		a.addPredicate(rc, flipOp(b.Op), b.Left.SQL())
	}
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

func appendUnique(list []string, v string) []string {
	for _, x := range list {
		if x == v {
			return list
		}
	}
	return append(list, v)
}
