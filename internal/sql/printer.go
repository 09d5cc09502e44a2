package sql

import (
	"strconv"
	"strings"
)

// This file renders AST nodes back into SQL text. The output is a normalised
// spelling (keywords upper-cased, single spaces, parentheses only where
// precedence needs them, identifiers quoted only where the lexer needs it)
// which the canonical form, the template and both fingerprints rely on:
// printing a parsed statement and parsing the result prints the same text
// again.

// printer appends the rendering of a whole tree to one buffer, so printing
// costs time linear in the output however deep the tree is.
type printer struct {
	strings.Builder
	// mask renders the template form: every literal prints as ? and every IN
	// value list as one ?, so statements that differ only in their constants
	// print alike.
	mask bool
}

func printStatement(s Statement, mask bool) string {
	p := printer{mask: mask}
	p.statement(s)
	return p.String()
}

func printExpr(e Expr) string {
	var p printer
	p.expr(e)
	return p.String()
}

func printTableRef(t TableRef) string {
	var p printer
	p.tableRef(t)
	return p.String()
}

// SQL renders the node back into SQL text: one method per node type, which is
// what makes each a Statement, a TableRef or an Expr.

func (s *SelectStmt) SQL() string      { return printStatement(s, false) }
func (s *InsertStmt) SQL() string      { return printStatement(s, false) }
func (s *UpdateStmt) SQL() string      { return printStatement(s, false) }
func (s *DeleteStmt) SQL() string      { return printStatement(s, false) }
func (s *CreateTableStmt) SQL() string { return printStatement(s, false) }
func (s *DropTableStmt) SQL() string   { return printStatement(s, false) }
func (s *AlterTableStmt) SQL() string  { return printStatement(s, false) }

func (t *TableName) SQL() string   { return printTableRef(t) }
func (j *JoinExpr) SQL() string    { return printTableRef(j) }
func (s *SubqueryRef) SQL() string { return printTableRef(s) }

func (c *ColumnRef) SQL() string    { return printExpr(c) }
func (l *Literal) SQL() string      { return printExpr(l) }
func (b *BinaryExpr) SQL() string   { return printExpr(b) }
func (u *UnaryExpr) SQL() string    { return printExpr(u) }
func (f *FuncCall) SQL() string     { return printExpr(f) }
func (in *InExpr) SQL() string      { return printExpr(in) }
func (b *BetweenExpr) SQL() string  { return printExpr(b) }
func (l *LikeExpr) SQL() string     { return printExpr(l) }
func (i *IsNullExpr) SQL() string   { return printExpr(i) }
func (e *ExistsExpr) SQL() string   { return printExpr(e) }
func (s *SubqueryExpr) SQL() string { return printExpr(s) }
func (c *CaseExpr) SQL() string     { return printExpr(c) }
func (p *ParamExpr) SQL() string    { return p.Text }

// SQL renders a SELECT-list item.
func (s SelectItem) SQL() string {
	var p printer
	p.selectItem(s)
	return p.String()
}

// ---------------------------------------------------------------------------
// Identifiers
// ---------------------------------------------------------------------------

// keywordClass reports whether name, upper-cased, is a reserved word, and
// whether it is one parseIdent accepts as an identifier all the same.
func keywordClass(name string) (reserved, identOK bool) {
	var buf [9]byte // the longest keywords (INTERSECT, TIMESTAMP) have 9 letters
	if len(name) > len(buf) {
		return false, false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return keywords[string(buf[:len(name)])], identKeywords[string(buf[:len(name)])]
}

// ident writes an identifier, double-quoted only when the lexer would not
// read the bare spelling back as the same name: anything that is not a plain
// word, and reserved words. The keywords parseIdent accepts stay bare in the
// lower-case spelling it gives them, where parseIdent reads them; bareAlias
// marks the positions it does not (an alias written without AS, the qualifier
// of t.*).
func (p *printer) ident(name string, bareAlias bool) {
	plain := name != "" && isIdentStart(name[0])
	for i := 1; plain && i < len(name); i++ {
		plain = isIdentPart(name[i])
	}
	reserved, identOK := keywordClass(name)
	if plain && (!reserved || identOK && !bareAlias && name == strings.ToLower(name)) {
		p.WriteString(name)
		return
	}
	p.WriteByte('"')
	p.WriteString(strings.ReplaceAll(name, `"`, `""`))
	p.WriteByte('"')
}

func (p *printer) idents(names []string) {
	for i, name := range names {
		if i > 0 {
			p.WriteString(", ")
		}
		p.ident(name, false)
	}
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (p *printer) statement(stmt Statement) {
	switch s := stmt.(type) {
	case *SelectStmt:
		p.selectStmt(s)
	case *InsertStmt:
		p.WriteString("INSERT INTO ")
		p.ident(s.Table, false)
		if len(s.Columns) > 0 {
			p.WriteString(" (")
			p.idents(s.Columns)
			p.WriteString(")")
		}
		if s.Select != nil {
			p.WriteString(" ")
			p.selectStmt(s.Select)
			return
		}
		p.WriteString(" VALUES ")
		for i, row := range s.Rows {
			if i > 0 {
				p.WriteString(", ")
			}
			p.WriteString("(")
			p.exprs(row)
			p.WriteString(")")
		}
	case *UpdateStmt:
		p.WriteString("UPDATE ")
		p.ident(s.Table, false)
		p.WriteString(" SET ")
		for i, a := range s.Set {
			if i > 0 {
				p.WriteString(", ")
			}
			p.ident(a.Column, false)
			p.WriteString(" = ")
			p.expr(a.Value)
		}
		p.clause(" WHERE ", s.Where)
	case *DeleteStmt:
		p.WriteString("DELETE FROM ")
		p.ident(s.Table, false)
		p.clause(" WHERE ", s.Where)
	case *CreateTableStmt:
		p.WriteString("CREATE TABLE ")
		if s.IfNotExists {
			p.WriteString("IF NOT EXISTS ")
		}
		p.ident(s.Table, false)
		p.WriteString(" (")
		for i, c := range s.Columns {
			if i > 0 {
				p.WriteString(", ")
			}
			p.ident(c.Name, false)
			p.WriteString(" ")
			p.WriteString(c.Type)
			if c.PrimaryKey {
				p.WriteString(" PRIMARY KEY")
			}
			if c.NotNull {
				p.WriteString(" NOT NULL")
			}
			if c.Unique {
				p.WriteString(" UNIQUE")
			}
		}
		p.WriteString(")")
	case *DropTableStmt:
		p.WriteString("DROP TABLE ")
		if s.IfExists {
			p.WriteString("IF EXISTS ")
		}
		p.ident(s.Table, false)
	case *AlterTableStmt:
		p.WriteString("ALTER TABLE ")
		p.ident(s.Table, false)
		switch s.Action {
		case AlterAddColumn:
			p.WriteString(" ADD COLUMN ")
			p.ident(s.Column.Name, false)
			p.WriteString(" ")
			p.WriteString(s.Column.Type)
		case AlterDropColumn:
			p.WriteString(" DROP COLUMN ")
			p.ident(s.OldName, false)
		case AlterRenameColumn:
			p.WriteString(" RENAME COLUMN ")
			p.ident(s.OldName, false)
			p.WriteString(" TO ")
			p.ident(s.NewName, false)
		case AlterRenameTable:
			p.WriteString(" RENAME TO ")
			p.ident(s.NewName, false)
		}
	}
}

// clause writes an optional keyword-introduced expression.
func (p *printer) clause(keyword string, e Expr) {
	if e != nil {
		p.WriteString(keyword)
		p.expr(e)
	}
}

func (p *printer) selectStmt(s *SelectStmt) {
	p.WriteString("SELECT ")
	if s.Distinct {
		p.WriteString("DISTINCT ")
	}
	for i, item := range s.Columns {
		if i > 0 {
			p.WriteString(", ")
		}
		p.selectItem(item)
	}
	if len(s.From) > 0 {
		p.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				p.WriteString(", ")
			}
			p.tableRef(t)
		}
	}
	p.clause(" WHERE ", s.Where)
	if len(s.GroupBy) > 0 {
		p.WriteString(" GROUP BY ")
		p.exprs(s.GroupBy)
	}
	p.clause(" HAVING ", s.Having)
	if len(s.OrderBy) > 0 {
		p.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				p.WriteString(", ")
			}
			p.expr(o.Expr)
			if o.Desc {
				p.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		p.WriteString(" LIMIT ")
		p.WriteString(strconv.FormatInt(s.Limit.Count, 10))
		if s.Limit.HasOffset {
			p.WriteString(" OFFSET ")
			p.WriteString(strconv.FormatInt(s.Limit.Offset, 10))
		}
	}
	if s.Compound != nil {
		p.WriteString(" ")
		p.WriteString(s.Compound.Op)
		if s.Compound.All {
			p.WriteString(" ALL")
		}
		p.WriteString(" ")
		p.selectStmt(s.Compound.Right)
	}
}

func (p *printer) selectItem(s SelectItem) {
	switch {
	case s.Star:
		p.WriteString("*")
	case s.TableStar != "":
		p.ident(s.TableStar, true)
		p.WriteString(".*")
	default:
		p.expr(s.Expr)
		if s.Alias != "" {
			p.WriteString(" AS ")
			p.ident(s.Alias, false)
		}
	}
}

func (p *printer) tableRef(t TableRef) {
	switch ref := t.(type) {
	case *TableName:
		p.ident(ref.Name, false)
		if ref.Alias != "" {
			p.WriteString(" ")
			p.ident(ref.Alias, true)
		}
	case *JoinExpr:
		p.tableRef(ref.Left)
		p.WriteString(" ")
		p.WriteString(ref.Type.String())
		p.WriteString(" ")
		p.tableRef(ref.Right)
		if ref.On != nil {
			p.WriteString(" ON ")
			p.expr(ref.On)
		} else if len(ref.Using) > 0 {
			p.WriteString(" USING (")
			p.idents(ref.Using)
			p.WriteString(")")
		}
	case *SubqueryRef:
		p.WriteString("(")
		p.selectStmt(ref.Select)
		p.WriteString(")")
		if ref.Alias != "" {
			p.WriteString(" ")
			p.ident(ref.Alias, true)
		}
	}
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Precedence classes, loosest first, mirroring the parser's productions. They
// decide parenthesisation only.
const (
	precOr = iota + 1
	precAnd
	precNot
	precCompare // comparisons, IN, BETWEEN, LIKE, IS NULL
	precAdd
	precMul
	precUnary
	precPrimary
)

func binaryPrec(op string) int {
	switch op {
	case "OR":
		return precOr
	case "AND":
		return precAnd
	case "=", "<>", "<", "<=", ">", ">=":
		return precCompare
	case "+", "-", "||":
		return precAdd
	default:
		return precMul
	}
}

func exprPrec(e Expr) int {
	switch n := e.(type) {
	case *BinaryExpr:
		return binaryPrec(n.Op)
	case *UnaryExpr:
		if n.Op == "NOT" {
			return precNot
		}
		return precUnary
	case *InExpr, *BetweenExpr, *LikeExpr, *IsNullExpr:
		return precCompare
	case *ExistsExpr:
		if n.Not {
			return precNot
		}
	}
	return precPrimary
}

// operand writes e where the grammar wants an expression of at least the
// given precedence, parenthesised if e is looser.
func (p *printer) operand(e Expr, prec int) {
	if exprPrec(e) < prec {
		p.WriteString("(")
		p.expr(e)
		p.WriteString(")")
		return
	}
	p.expr(e)
}

func (p *printer) exprs(list []Expr) {
	for i, e := range list {
		if i > 0 {
			p.WriteString(", ")
		}
		p.expr(e)
	}
}

func (p *printer) not(not bool) {
	if not {
		p.WriteString(" NOT")
	}
}

func (p *printer) expr(e Expr) {
	switch n := e.(type) {
	case *ColumnRef:
		if n.Table != "" {
			p.ident(n.Table, false)
			p.WriteString(".")
		}
		p.ident(n.Name, false)
	case *Literal:
		switch {
		case p.mask:
			p.WriteString("?")
		case n.Kind == LiteralString:
			p.WriteString("'")
			p.WriteString(strings.ReplaceAll(n.Text, "'", "''"))
			p.WriteString("'")
		case n.Kind == LiteralNull:
			p.WriteString("NULL")
		case n.Kind == LiteralBool:
			p.WriteString(strings.ToUpper(n.Text))
		default:
			p.WriteString(n.Text)
		}
	case *ParamExpr:
		p.WriteString(n.Text)
	case *BinaryExpr:
		// The parser builds left-deep chains, so a right operand of the same
		// precedence was parenthesised in the source and stays so — except
		// under AND and OR, which are associative and have always printed
		// flat. Comparisons do not chain on either side.
		prec := binaryPrec(n.Op)
		left, right := prec, prec+1
		switch {
		case prec <= precAnd:
			right = prec
		case prec == precCompare:
			left = prec + 1
		}
		p.operand(n.Left, left)
		p.WriteString(" ")
		p.WriteString(n.Op)
		p.WriteString(" ")
		p.operand(n.Right, right)
	case *UnaryExpr:
		// A binary operand is always parenthesised (NOT (a = b)), which the
		// precedence alone would not ask for. A negative operand is set off
		// by a space: "--x" would read back as a comment.
		prec := precUnary
		if n.Op == "NOT" {
			p.WriteString("NOT ")
			prec = precNot
		} else {
			p.WriteString(n.Op)
			if p.negative(n.Expr) {
				p.WriteString(" ")
			}
		}
		if _, ok := n.Expr.(*BinaryExpr); ok {
			prec = precPrimary + 1
		}
		p.operand(n.Expr, prec)
	case *FuncCall:
		p.funcName(n.Name)
		p.WriteString("(")
		if n.Star {
			p.WriteString("*")
		} else {
			if n.Distinct {
				p.WriteString("DISTINCT ")
			}
			p.exprs(n.Args)
		}
		p.WriteString(")")
	case *InExpr:
		p.operand(n.Expr, precAdd)
		p.not(n.Not)
		p.WriteString(" IN (")
		switch {
		case n.Select != nil:
			p.selectStmt(n.Select)
		case p.mask:
			// Collapse the whole list so that IN (1,2) and IN (1,2,3) share
			// a template.
			p.WriteString("?")
		default:
			p.exprs(n.List)
		}
		p.WriteString(")")
	case *BetweenExpr:
		p.operand(n.Expr, precAdd)
		p.not(n.Not)
		p.WriteString(" BETWEEN ")
		p.operand(n.Low, precAdd)
		p.WriteString(" AND ")
		p.operand(n.High, precAdd)
	case *LikeExpr:
		p.operand(n.Expr, precAdd)
		p.not(n.Not)
		p.WriteString(" LIKE ")
		p.operand(n.Pattern, precAdd)
	case *IsNullExpr:
		p.operand(n.Expr, precAdd)
		p.WriteString(" IS")
		p.not(n.Not)
		p.WriteString(" NULL")
	case *ExistsExpr:
		if n.Not {
			p.WriteString("NOT ")
		}
		p.WriteString("EXISTS (")
		p.selectStmt(n.Select)
		p.WriteString(")")
	case *SubqueryExpr:
		p.WriteString("(")
		p.selectStmt(n.Select)
		p.WriteString(")")
	case *CaseExpr:
		p.WriteString("CASE")
		p.clause(" ", n.Operand)
		for _, w := range n.Whens {
			p.clause(" WHEN ", w.When)
			p.clause(" THEN ", w.Then)
		}
		p.clause(" ELSE ", n.Else)
		p.WriteString(" END")
	}
}

// negative reports whether e prints with a leading minus sign.
func (p *printer) negative(e Expr) bool {
	switch n := e.(type) {
	case *Literal:
		return !p.mask && n.Kind == LiteralNumber && strings.HasPrefix(n.Text, "-")
	case *UnaryExpr:
		return n.Op == "-"
	}
	return false
}

// funcName writes a function name, which the parser reads with parseIdent and
// upper-cases.
func (p *printer) funcName(name string) {
	if _, identOK := keywordClass(name); identOK && name == strings.ToUpper(name) {
		p.WriteString(name)
		return
	}
	p.ident(name, false)
}
