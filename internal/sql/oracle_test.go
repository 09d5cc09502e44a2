package sql

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// This file is the text-in oracle: the helpers that parse the text they are
// given and derive one stored field from it, as the serving tree did before a
// statement was parsed once per request and carried down as a value, and the
// clone-and-mask template the printer's mask mode replaced. They have no
// caller outside tests; FuzzParse and storage's TestNewRecordMatchesTextOracle
// hold the serving path (sql.Parse once, storage.NewRecord) to them.

// Canonical returns the normalised SQL text for a query string: keywords
// upper-cased, whitespace collapsed, comments stripped. Two queries that
// differ only in formatting have equal canonical forms. Parsing errors are
// returned so callers can fall back to raw text.
func Canonical(text string) (string, error) {
	stmt, err := Parse(text)
	if err != nil {
		return "", err
	}
	return stmt.SQL(), nil
}

// cloneMaskTemplate is Template as it was before the printer could mask:
// deep-copy the statement, replace every literal in the copy, print the copy.
func cloneMaskTemplate(stmt Statement) string {
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return MaskConstants(stmt.SQL())
	}
	clone := CloneSelect(sel)
	maskSelectConstants(clone)
	return clone.SQL()
}

// TemplateText parses text and returns its template, falling back to a
// token-level constant mask if parsing fails.
func TemplateText(text string) string {
	stmt, err := Parse(text)
	if err != nil {
		return MaskConstants(text)
	}
	return cloneMaskTemplate(stmt)
}

// Fingerprint returns a stable 64-bit hash of the query template. Queries
// that are structurally identical up to constants share a fingerprint.
func Fingerprint(text string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(strings.ToUpper(TemplateText(text))))
	return h.Sum64()
}

// ExactFingerprint returns a stable 64-bit hash of the canonical form
// (constants included). Used for exact-duplicate detection in the storage
// layer.
func ExactFingerprint(text string) uint64 {
	canon, err := Canonical(text)
	if err != nil {
		canon = strings.ToUpper(strings.Join(strings.Fields(text), " "))
	}
	h := fnv.New64a()
	h.Write([]byte(canon))
	return h.Sum64()
}

// AnalyzeQuery parses the query text and analyzes it; non-SELECT statements
// produce an empty analysis without error.
func AnalyzeQuery(text string) (*Analysis, error) {
	stmt, err := Parse(text)
	if err != nil {
		return nil, err
	}
	if sel, ok := stmt.(*SelectStmt); ok {
		return Analyze(sel), nil
	}
	return &Analysis{}, nil
}

// DiffQueries parses both query strings and computes their diff.
func DiffQueries(a, b string) (*Diff, error) {
	aa, err := AnalyzeQuery(a)
	if err != nil {
		return nil, fmt.Errorf("analyzing first query: %w", err)
	}
	bb, err := AnalyzeQuery(b)
	if err != nil {
		return nil, fmt.Errorf("analyzing second query: %w", err)
	}
	return ComputeDiff(aa, bb), nil
}

func maskSelectConstants(s *SelectStmt) {
	if s == nil {
		return
	}
	mask := func(e Expr) Expr {
		return maskExprConstants(e)
	}
	for i := range s.Columns {
		if s.Columns[i].Expr != nil {
			s.Columns[i].Expr = mask(s.Columns[i].Expr)
		}
	}
	for i := range s.From {
		maskTableRefConstants(s.From[i])
	}
	s.Where = mask(s.Where)
	for i := range s.GroupBy {
		s.GroupBy[i] = mask(s.GroupBy[i])
	}
	s.Having = mask(s.Having)
	for i := range s.OrderBy {
		s.OrderBy[i].Expr = mask(s.OrderBy[i].Expr)
	}
	if s.Compound != nil {
		maskSelectConstants(s.Compound.Right)
	}
}

func maskTableRefConstants(t TableRef) {
	switch ref := t.(type) {
	case *JoinExpr:
		maskTableRefConstants(ref.Left)
		maskTableRefConstants(ref.Right)
		ref.On = maskExprConstants(ref.On)
	case *SubqueryRef:
		maskSelectConstants(ref.Select)
	}
}

func maskExprConstants(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *Literal:
		return &ParamExpr{Text: "?"}
	case *BinaryExpr:
		return &BinaryExpr{Op: n.Op, Left: maskExprConstants(n.Left), Right: maskExprConstants(n.Right)}
	case *UnaryExpr:
		return &UnaryExpr{Op: n.Op, Expr: maskExprConstants(n.Expr)}
	case *FuncCall:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = maskExprConstants(a)
		}
		return &FuncCall{Name: n.Name, Star: n.Star, Distinct: n.Distinct, Args: args}
	case *InExpr:
		out := &InExpr{Not: n.Not, Expr: maskExprConstants(n.Expr)}
		if n.Select != nil {
			out.Select = CloneSelect(n.Select)
			maskSelectConstants(out.Select)
		} else {
			// Collapse the whole IN list to a single placeholder so that
			// IN (1,2) and IN (1,2,3) share a template.
			out.List = []Expr{&ParamExpr{Text: "?"}}
		}
		return out
	case *BetweenExpr:
		return &BetweenExpr{Not: n.Not, Expr: maskExprConstants(n.Expr),
			Low: maskExprConstants(n.Low), High: maskExprConstants(n.High)}
	case *LikeExpr:
		return &LikeExpr{Not: n.Not, Expr: maskExprConstants(n.Expr), Pattern: maskExprConstants(n.Pattern)}
	case *IsNullExpr:
		return &IsNullExpr{Not: n.Not, Expr: maskExprConstants(n.Expr)}
	case *ExistsExpr:
		sel := CloneSelect(n.Select)
		maskSelectConstants(sel)
		return &ExistsExpr{Not: n.Not, Select: sel}
	case *SubqueryExpr:
		sel := CloneSelect(n.Select)
		maskSelectConstants(sel)
		return &SubqueryExpr{Select: sel}
	case *CaseExpr:
		out := &CaseExpr{Operand: maskExprConstants(n.Operand), Else: maskExprConstants(n.Else)}
		for _, w := range n.Whens {
			out.Whens = append(out.Whens, CaseWhen{When: maskExprConstants(w.When), Then: maskExprConstants(w.Then)})
		}
		return out
	default:
		return e
	}
}

// CloneSelect returns a deep copy of the SELECT statement. The clone shares
// no mutable state with the original, so callers may rewrite it freely.
func CloneSelect(s *SelectStmt) *SelectStmt {
	if s == nil {
		return nil
	}
	out := &SelectStmt{Distinct: s.Distinct}
	for _, c := range s.Columns {
		out.Columns = append(out.Columns, SelectItem{
			Star: c.Star, TableStar: c.TableStar, Alias: c.Alias, Expr: CloneExpr(c.Expr),
		})
	}
	for _, t := range s.From {
		out.From = append(out.From, cloneTableRef(t))
	}
	out.Where = CloneExpr(s.Where)
	for _, g := range s.GroupBy {
		out.GroupBy = append(out.GroupBy, CloneExpr(g))
	}
	out.Having = CloneExpr(s.Having)
	for _, o := range s.OrderBy {
		out.OrderBy = append(out.OrderBy, OrderItem{Expr: CloneExpr(o.Expr), Desc: o.Desc})
	}
	if s.Limit != nil {
		l := *s.Limit
		out.Limit = &l
	}
	if s.Compound != nil {
		out.Compound = &CompoundClause{Op: s.Compound.Op, All: s.Compound.All, Right: CloneSelect(s.Compound.Right)}
	}
	return out
}

func cloneTableRef(t TableRef) TableRef {
	switch ref := t.(type) {
	case *TableName:
		c := *ref
		return &c
	case *JoinExpr:
		return &JoinExpr{
			Type:  ref.Type,
			Left:  cloneTableRef(ref.Left),
			Right: cloneTableRef(ref.Right),
			On:    CloneExpr(ref.On),
			Using: append([]string(nil), ref.Using...),
		}
	case *SubqueryRef:
		return &SubqueryRef{Select: CloneSelect(ref.Select), Alias: ref.Alias}
	default:
		return t
	}
}

// CloneExpr returns a deep copy of an expression tree.
func CloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *ColumnRef:
		c := *n
		return &c
	case *Literal:
		c := *n
		return &c
	case *ParamExpr:
		c := *n
		return &c
	case *BinaryExpr:
		return &BinaryExpr{Op: n.Op, Left: CloneExpr(n.Left), Right: CloneExpr(n.Right)}
	case *UnaryExpr:
		return &UnaryExpr{Op: n.Op, Expr: CloneExpr(n.Expr)}
	case *FuncCall:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = CloneExpr(a)
		}
		return &FuncCall{Name: n.Name, Star: n.Star, Distinct: n.Distinct, Args: args}
	case *InExpr:
		out := &InExpr{Not: n.Not, Expr: CloneExpr(n.Expr), Select: CloneSelect(n.Select)}
		for _, item := range n.List {
			out.List = append(out.List, CloneExpr(item))
		}
		return out
	case *BetweenExpr:
		return &BetweenExpr{Not: n.Not, Expr: CloneExpr(n.Expr), Low: CloneExpr(n.Low), High: CloneExpr(n.High)}
	case *LikeExpr:
		return &LikeExpr{Not: n.Not, Expr: CloneExpr(n.Expr), Pattern: CloneExpr(n.Pattern)}
	case *IsNullExpr:
		return &IsNullExpr{Not: n.Not, Expr: CloneExpr(n.Expr)}
	case *ExistsExpr:
		return &ExistsExpr{Not: n.Not, Select: CloneSelect(n.Select)}
	case *SubqueryExpr:
		return &SubqueryExpr{Select: CloneSelect(n.Select)}
	case *CaseExpr:
		out := &CaseExpr{Operand: CloneExpr(n.Operand), Else: CloneExpr(n.Else)}
		for _, w := range n.Whens {
			out.Whens = append(out.Whens, CaseWhen{When: CloneExpr(w.When), Then: CloneExpr(w.Then)})
		}
		return out
	default:
		panic(fmt.Sprintf("sql: CloneExpr: unhandled node type %T", e))
	}
}
