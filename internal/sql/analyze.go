package sql

import (
	"sort"
	"strings"
)

// Analysis is the set of syntactic query features extracted from a SELECT
// statement. It corresponds to the feature relations of Figure 1 in the
// paper (DataSources, Attributes, Predicates) plus the additional structural
// features that the miner and recommender use (joins, aggregates, grouping,
// nesting depth).
type Analysis struct {
	// Tables are the base relations referenced in FROM clauses (including
	// nested sub-queries), original spelling preserved, duplicates removed.
	Tables []string
	// Aliases maps alias -> table name for every aliased base relation.
	Aliases map[string]string
	// Columns are all column references, resolved against aliases where
	// possible, as "Table.column" or bare "column" if unresolvable.
	Columns []ColumnUse
	// Predicates are the atomic comparison predicates found in WHERE/HAVING
	// and join ON conditions.
	Predicates []PredicateFeature
	// Joins are the join edges implied by ON conditions and WHERE equality
	// predicates between columns of two different relations.
	Joins []JoinFeature
	// Aggregates are the aggregate function names used (upper-case).
	Aggregates []string
	// GroupByColumns are the column names appearing in GROUP BY.
	GroupByColumns []string
	// OrderByColumns are the column names appearing in ORDER BY.
	OrderByColumns []string
	// SelectStar is true if the outer query projects *.
	SelectStar bool
	// Distinct is true if the outer query is SELECT DISTINCT.
	Distinct bool
	// SubqueryCount is the number of nested SELECTs.
	SubqueryCount int
	// HasLimit is true if the outer query has a LIMIT clause.
	HasLimit bool

	// outputAliases holds the lower-cased SELECT-list aliases of the outer
	// query, so that references to them (ORDER BY avg_temp) are not reported
	// as base-column uses.
	outputAliases map[string]bool
}

// ColumnUse records a single column reference and the clause it appears in.
type ColumnUse struct {
	Table  string // resolved base-table name when possible, otherwise the raw qualifier (possibly empty)
	Column string
	Clause string // SELECT, WHERE, GROUPBY, HAVING, ORDERBY, JOIN
}

// PredicateFeature is an atomic predicate "column op constant" or
// "column op column" found in the query.
type PredicateFeature struct {
	Table    string
	Column   string
	Op       string // =, <>, <, <=, >, >=, LIKE, IN, BETWEEN, ISNULL
	Value    string // rendered constant, or "" for column-column predicates
	IsJoin   bool   // true when both sides are column references
	RightTab string // for join predicates, the other side's table
	RightCol string // for join predicates, the other side's column
}

// JoinFeature is a join edge between two relations.
type JoinFeature struct {
	LeftTable   string
	LeftColumn  string
	RightTable  string
	RightColumn string
	Type        JoinType
}

// Key returns a canonical key for the predicate feature, used by the miner
// when counting feature co-occurrence.
func (p PredicateFeature) Key() string {
	if p.IsJoin {
		a := p.Table + "." + p.Column
		b := p.RightTab + "." + p.RightCol
		if a > b {
			a, b = b, a
		}
		return "join:" + a + "=" + b
	}
	return "pred:" + p.Table + "." + p.Column + " " + p.Op + " " + p.Value
}

// TemplateKey returns the predicate key with the constant removed, so that
// "temp < 18" and "temp < 22" share a key. Used for edit-pattern mining.
func (p PredicateFeature) TemplateKey() string {
	if p.IsJoin {
		return p.Key()
	}
	return "pred:" + p.Table + "." + p.Column + " " + p.Op + " ?"
}

// Analyze extracts syntactic features from a SELECT statement. The statement
// is not modified.
func Analyze(s *SelectStmt) *Analysis {
	a := &Analysis{Aliases: make(map[string]string), outputAliases: make(map[string]bool)}
	if s == nil {
		return a
	}
	for _, item := range s.Columns {
		if item.Alias != "" {
			a.outputAliases[strings.ToLower(item.Alias)] = true
		}
	}
	subs := Subqueries(s)
	a.SubqueryCount = len(subs)
	a.collectTables(s, subs)
	a.collectOuterShape(s)
	a.collectColumns(s)
	a.collectPredicates(s)
	sort.Strings(a.Tables)
	sort.Strings(a.Aggregates)
	return a
}

// isOutputAlias reports whether an unqualified column reference actually
// names a SELECT-list alias (e.g. ORDER BY avg_temp) rather than a base
// column. Such references are not stored as attribute features, which keeps
// the maintenance validator from mistaking them for dropped columns.
func (a *Analysis) isOutputAlias(c *ColumnRef) bool {
	return c.Table == "" && a.outputAliases[strings.ToLower(c.Name)]
}

// collectTables records the base relations and aliases of s and of every
// SELECT nested in it. WalkTableRefs reaches derived tables itself; subs
// brings the sub-queries in expression position, which it does not descend
// into.
func (a *Analysis) collectTables(s *SelectStmt, subs []*SelectStmt) {
	seen := make(map[string]bool)
	visit := func(t TableRef) bool {
		if tn, ok := t.(*TableName); ok {
			if !seen[tn.Name] {
				seen[tn.Name] = true
				a.Tables = append(a.Tables, tn.Name)
			}
			if tn.Alias != "" {
				a.Aliases[tn.Alias] = tn.Name
			}
		}
		return true
	}
	WalkTableRefs(s, visit)
	for _, sub := range subs {
		WalkTableRefs(sub, visit)
	}
}

func (a *Analysis) collectOuterShape(s *SelectStmt) {
	a.Distinct = s.Distinct
	a.HasLimit = s.Limit != nil
	for _, item := range s.Columns {
		if item.Star {
			a.SelectStar = true
		}
	}
	for _, g := range s.GroupBy {
		if c, ok := g.(*ColumnRef); ok && !a.isOutputAlias(c) {
			a.GroupByColumns = append(a.GroupByColumns, a.resolveColumn(c))
		}
	}
	for _, o := range s.OrderBy {
		if c, ok := o.Expr.(*ColumnRef); ok && !a.isOutputAlias(c) {
			a.OrderByColumns = append(a.OrderByColumns, a.resolveColumn(c))
		}
	}
}

// resolveTable maps an alias or table qualifier to a base-table name.
func (a *Analysis) resolveTable(qualifier string) string {
	if qualifier == "" {
		if len(a.Tables) == 1 {
			return a.Tables[0]
		}
		return ""
	}
	if base, ok := a.Aliases[qualifier]; ok {
		return base
	}
	return qualifier
}

func (a *Analysis) resolveColumn(c *ColumnRef) string {
	t := a.resolveTable(c.Table)
	if t == "" {
		return c.Name
	}
	return t + "." + c.Name
}

func (a *Analysis) addColumnUse(c *ColumnRef, clause string) {
	if a.isOutputAlias(c) && clause != "SELECT" {
		return
	}
	a.Columns = append(a.Columns, ColumnUse{
		Table:  a.resolveTable(c.Table),
		Column: c.Name,
		Clause: clause,
	})
}

func (a *Analysis) collectColumns(s *SelectStmt) {
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
// predicates and join edges.
func (a *Analysis) collectPredicates(s *SelectStmt) {
	collect := func(e Expr, joinType JoinType, fromOn bool) {
		a.collectPredicateTree(e, joinType, fromOn)
	}
	collect(s.Where, JoinInner, false)
	collect(s.Having, JoinInner, false)
	for _, t := range s.From {
		a.collectJoinOn(t)
	}
	// Implicit cross-product join in FROM list with WHERE equality already
	// handled by collectPredicateTree (IsJoin flag); derive join features.
	for _, p := range a.Predicates {
		if p.IsJoin {
			a.Joins = append(a.Joins, JoinFeature{
				LeftTable: p.Table, LeftColumn: p.Column,
				RightTable: p.RightTab, RightColumn: p.RightCol,
				Type: JoinInner,
			})
		}
	}
}

func (a *Analysis) collectJoinOn(t TableRef) {
	switch ref := t.(type) {
	case *JoinExpr:
		a.collectJoinOn(ref.Left)
		a.collectJoinOn(ref.Right)
		if ref.On != nil {
			a.collectPredicateTree(ref.On, ref.Type, true)
		}
	case *SubqueryRef:
		// predicates inside derived tables are features of the derived table
		// itself; count them too so that meta-queries over nested queries work.
		if ref.Select != nil {
			a.collectPredicateTree(ref.Select.Where, JoinInner, false)
		}
	}
}

// collectPredicateTree splits a boolean expression on AND/OR and records each
// atomic comparison.
func (a *Analysis) collectPredicateTree(e Expr, joinType JoinType, fromOn bool) {
	if e == nil {
		return
	}
	switch n := e.(type) {
	case *BinaryExpr:
		if n.Op == "AND" || n.Op == "OR" {
			a.collectPredicateTree(n.Left, joinType, fromOn)
			a.collectPredicateTree(n.Right, joinType, fromOn)
			return
		}
		a.addComparison(n, joinType)
	case *UnaryExpr:
		if n.Op == "NOT" {
			a.collectPredicateTree(n.Expr, joinType, fromOn)
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
			a.Predicates = append(a.Predicates, PredicateFeature{
				Table: a.resolveTable(c.Table), Column: c.Name, Op: "IN", Value: val,
			})
		}
	case *BetweenExpr:
		if c, ok := n.Expr.(*ColumnRef); ok {
			a.Predicates = append(a.Predicates, PredicateFeature{
				Table: a.resolveTable(c.Table), Column: c.Name, Op: "BETWEEN",
				Value: n.Low.SQL() + " AND " + n.High.SQL(),
			})
		}
	case *LikeExpr:
		if c, ok := n.Expr.(*ColumnRef); ok {
			a.Predicates = append(a.Predicates, PredicateFeature{
				Table: a.resolveTable(c.Table), Column: c.Name, Op: "LIKE", Value: n.Pattern.SQL(),
			})
		}
	case *IsNullExpr:
		if c, ok := n.Expr.(*ColumnRef); ok {
			op := "ISNULL"
			if n.Not {
				op = "ISNOTNULL"
			}
			a.Predicates = append(a.Predicates, PredicateFeature{
				Table: a.resolveTable(c.Table), Column: c.Name, Op: op,
			})
		}
	}
}

func (a *Analysis) addComparison(b *BinaryExpr, joinType JoinType) {
	switch b.Op {
	case "=", "<>", "<", "<=", ">", ">=":
	default:
		return
	}
	lc, lok := b.Left.(*ColumnRef)
	rc, rok := b.Right.(*ColumnRef)
	switch {
	case lok && rok:
		a.Predicates = append(a.Predicates, PredicateFeature{
			Table: a.resolveTable(lc.Table), Column: lc.Name, Op: b.Op,
			IsJoin:   true,
			RightTab: a.resolveTable(rc.Table), RightCol: rc.Name,
		})
	case lok:
		a.Predicates = append(a.Predicates, PredicateFeature{
			Table: a.resolveTable(lc.Table), Column: lc.Name, Op: b.Op, Value: b.Right.SQL(),
		})
	case rok:
		// Normalise "18 > temp" to "temp < 18".
		a.Predicates = append(a.Predicates, PredicateFeature{
			Table: a.resolveTable(rc.Table), Column: rc.Name, Op: flipOp(b.Op), Value: b.Left.SQL(),
		})
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

// FeatureSet returns the analysis as a flat set of feature strings, the
// representation used by the miner (association rules, Jaccard similarity)
// and the recommender. Feature strings are prefixed by their kind:
//
//	table:WaterSalinity
//	col:WaterTemp.temp
//	pred:WaterTemp.temp < ?
//	join:WaterSalinity.loc_x=WaterTemp.loc_x
//	agg:AVG
//	groupby:CityLocations.city
func (a *Analysis) FeatureSet() []string {
	set := make(map[string]bool)
	for _, t := range a.Tables {
		set["table:"+t] = true
	}
	for _, c := range a.Columns {
		name := c.Column
		if c.Table != "" {
			name = c.Table + "." + c.Column
		}
		set["col:"+name] = true
	}
	for _, p := range a.Predicates {
		set[p.TemplateKey()] = true
	}
	for _, agg := range a.Aggregates {
		set["agg:"+agg] = true
	}
	for _, g := range a.GroupByColumns {
		set["groupby:"+g] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
