package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError describes a syntax error with the offending token position.
type ParseError struct {
	Msg  string
	Tok  Token
	Near string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	if e.Near != "" {
		return fmt.Sprintf("parse error at line %d col %d near %q: %s", e.Tok.Line, e.Tok.Col, e.Near, e.Msg)
	}
	return fmt.Sprintf("parse error at line %d col %d: %s", e.Tok.Line, e.Tok.Col, e.Msg)
}

// Parser parses a token stream into statements. Use Parse or ParseStatements
// rather than constructing a Parser directly.
type Parser struct {
	toks []Token
	pos  int
	// depth counts the recursive productions open above the one being parsed;
	// reach is the deepest level anything under the innermost open left-deep
	// chain has got to (see beginChain). Together they hold every statement
	// the parser accepts to maxDepth levels of nesting.
	depth int
	reach int
}

// maxDepth bounds how deeply a statement's parse tree may nest. Every
// recursive production (a parenthesised or nested expression, a NOT or sign
// chain, a subquery in any position, a compound SELECT) and every link of a
// left-deep chain (a AND b AND …, a + b + …, a JOIN b JOIN …) counts one
// level, so the parser itself and every recursive consumer of the tree it
// returns — printer, analyzer, the engine's evaluator — recurse a bounded
// number of frames whatever bytes arrive. 1,000 is SQLite's default
// SQLITE_MAX_EXPR_DEPTH: far above hand-written or generated SQL, far below
// what the stack holds. Width (select items, IN values, VALUES rows) is not
// limited.
const maxDepth = 1000

func (p *Parser) checkDepth(level int) error {
	if level > maxDepth {
		return p.errorf("statement is nested more than %d levels deep", maxDepth)
	}
	return nil
}

// enter opens one recursive production; the caller defers leave.
func (p *Parser) enter() error {
	p.depth++
	if p.depth > p.reach {
		p.reach = p.depth
	}
	return p.checkDepth(p.depth)
}

func (p *Parser) leave() { p.depth-- }

// beginChain starts the height count of one left-deep chain and returns the
// enclosing chain's count for endChain. The loops below build such a chain
// without recursing, so depth alone would not see it: each link puts one more
// node on top of everything the chain holds so far.
func (p *Parser) beginChain() int {
	outer := p.reach
	p.reach = p.depth
	return outer
}

func (p *Parser) link() error {
	p.reach++
	return p.checkDepth(p.reach)
}

func (p *Parser) endChain(outer int) {
	if p.reach < outer {
		p.reach = outer
	}
}

// Parse parses a single SQL statement. Trailing semicolons are permitted.
// It returns an error if the input contains more than one statement.
func Parse(input string) (Statement, error) {
	stmts, err := ParseStatements(input)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("sql: empty statement")
	}
	if len(stmts) > 1 {
		return nil, fmt.Errorf("sql: expected a single statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseSelect parses a single statement and requires it to be a SELECT.
func ParseSelect(input string) (*SelectStmt, error) {
	stmt, err := Parse(input)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: expected SELECT statement, got %T", stmt)
	}
	return sel, nil
}

// ParseStatements parses a semicolon-separated list of statements.
func ParseStatements(input string) ([]Statement, error) {
	toks, err := Tokenize(input)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	var stmts []Statement
	for {
		for p.peek().Kind == TokenSemicolon {
			p.next()
		}
		if p.peek().Kind == TokenEOF {
			return stmts, nil
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, stmt)
		switch p.peek().Kind {
		case TokenSemicolon, TokenEOF:
			// loop handles both
		default:
			return nil, p.errorf("expected ';' or end of input")
		}
	}
}

func (p *Parser) peek() Token { return p.toks[p.pos] }
func (p *Parser) peekAt(n int) Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	return &ParseError{Msg: fmt.Sprintf(format, args...), Tok: p.peek(), Near: p.peek().Text}
}

// isKeyword reports whether the current token is the given keyword.
func (p *Parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokenKeyword && t.Text == kw
}

// acceptKeyword consumes the keyword if present and reports whether it did.
func (p *Parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.next()
		return true
	}
	return false
}

// expectKeyword consumes the keyword or returns an error.
func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s", kw)
	}
	return nil
}

func (p *Parser) expect(kind TokenKind) (Token, error) {
	if p.peek().Kind != kind {
		return Token{}, p.errorf("expected %s", kind)
	}
	return p.next(), nil
}

// parseIdent accepts a plain or quoted identifier, and also tolerates
// non-reserved keywords used as identifiers (e.g. a column named "date").
func (p *Parser) parseIdent() (string, error) {
	t := p.peek()
	switch t.Kind {
	case TokenIdent, TokenQuotedIdent:
		p.next()
		return t.Text, nil
	case TokenKeyword:
		if identKeywords[t.Text] {
			p.next()
			return strings.ToLower(t.Text), nil
		}
	}
	return "", p.errorf("expected identifier")
}

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokenKeyword {
		return nil, p.errorf("expected statement keyword")
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreateTable()
	case "DROP":
		return p.parseDropTable()
	case "ALTER":
		return p.parseAlterTable()
	default:
		return nil, p.errorf("unsupported statement %s", t.Text)
	}
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	// SELECT list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Columns = append(sel.Columns, item)
		if p.peek().Kind == TokenComma {
			p.next()
			continue
		}
		break
	}
	// FROM clause.
	if p.acceptKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			if p.peek().Kind == TokenComma {
				p.next()
				continue
			}
			break
		}
	}
	// WHERE clause.
	if p.acceptKeyword("WHERE") {
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = expr
	}
	// GROUP BY.
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.peek().Kind == TokenComma {
				p.next()
				continue
			}
			break
		}
	}
	// HAVING.
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	// ORDER BY.
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.peek().Kind == TokenComma {
				p.next()
				continue
			}
			break
		}
	}
	// LIMIT / OFFSET.
	if p.acceptKeyword("LIMIT") {
		tok, err := p.expect(TokenNumber)
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(tok.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid LIMIT count %q", tok.Text)
		}
		sel.Limit = &LimitClause{Count: n}
		if p.acceptKeyword("OFFSET") {
			tok, err := p.expect(TokenNumber)
			if err != nil {
				return nil, err
			}
			off, err := strconv.ParseInt(tok.Text, 10, 64)
			if err != nil {
				return nil, p.errorf("invalid OFFSET %q", tok.Text)
			}
			sel.Limit.Offset = off
			sel.Limit.HasOffset = true
		}
	}
	// Set operations.
	if p.isKeyword("UNION") || p.isKeyword("EXCEPT") || p.isKeyword("INTERSECT") {
		op := p.next().Text
		all := p.acceptKeyword("ALL")
		right, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		sel.Compound = &CompoundClause{Op: op, All: all, Right: right}
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.peek().Kind == TokenStar {
		p.next()
		return SelectItem{Star: true}, nil
	}
	// t.* form: identifier DOT STAR.
	if (p.peek().Kind == TokenIdent || p.peek().Kind == TokenQuotedIdent) &&
		p.peekAt(1).Kind == TokenDot && p.peekAt(2).Kind == TokenStar {
		table := p.next().Text
		p.next() // dot
		p.next() // star
		return SelectItem{TableStar: table}, nil
	}
	expr, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: expr}
	if p.acceptKeyword("AS") {
		alias, err := p.parseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().Kind == TokenIdent || p.peek().Kind == TokenQuotedIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

// ---------------------------------------------------------------------------
// Table references and joins
// ---------------------------------------------------------------------------

func (p *Parser) parseTableRef() (TableRef, error) {
	outer := p.beginChain()
	left, err := p.parsePrimaryTableRef()
	if err != nil {
		return nil, err
	}
	for {
		jt, isJoin := p.peekJoin()
		if !isJoin {
			p.endChain(outer)
			return left, nil
		}
		right, err := p.parsePrimaryTableRef()
		if err != nil {
			return nil, err
		}
		join := &JoinExpr{Type: jt, Left: left, Right: right}
		if jt != JoinCross {
			if p.acceptKeyword("ON") {
				on, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				join.On = on
			} else if p.acceptKeyword("USING") {
				if _, err := p.expect(TokenLParen); err != nil {
					return nil, err
				}
				for {
					col, err := p.parseIdent()
					if err != nil {
						return nil, err
					}
					join.Using = append(join.Using, col)
					if p.peek().Kind == TokenComma {
						p.next()
						continue
					}
					break
				}
				if _, err := p.expect(TokenRParen); err != nil {
					return nil, err
				}
			}
		}
		left = join
		if err := p.link(); err != nil {
			return nil, err
		}
	}
}

// peekJoin consumes a join introducer ("JOIN", "LEFT [OUTER] JOIN", ...) if
// present and returns its type.
func (p *Parser) peekJoin() (JoinType, bool) {
	switch {
	case p.acceptKeyword("JOIN"):
		return JoinInner, true
	case p.isKeyword("INNER"):
		p.next()
		p.acceptKeyword("JOIN")
		return JoinInner, true
	case p.isKeyword("LEFT"):
		p.next()
		p.acceptKeyword("OUTER")
		p.acceptKeyword("JOIN")
		return JoinLeft, true
	case p.isKeyword("RIGHT"):
		p.next()
		p.acceptKeyword("OUTER")
		p.acceptKeyword("JOIN")
		return JoinRight, true
	case p.isKeyword("FULL"):
		p.next()
		p.acceptKeyword("OUTER")
		p.acceptKeyword("JOIN")
		return JoinFull, true
	case p.isKeyword("CROSS"):
		p.next()
		p.acceptKeyword("JOIN")
		return JoinCross, true
	default:
		return JoinInner, false
	}
}

func (p *Parser) parsePrimaryTableRef() (TableRef, error) {
	if p.peek().Kind == TokenLParen {
		p.next()
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokenRParen); err != nil {
			return nil, err
		}
		ref := &SubqueryRef{Select: sel}
		p.acceptKeyword("AS")
		if p.peek().Kind == TokenIdent || p.peek().Kind == TokenQuotedIdent {
			ref.Alias = p.next().Text
		}
		return ref, nil
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	ref := &TableName{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		ref.Alias = alias
	} else if p.peek().Kind == TokenIdent || p.peek().Kind == TokenQuotedIdent {
		ref.Alias = p.next().Text
	}
	return ref, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)
// ---------------------------------------------------------------------------

// parseExpr parses a full boolean expression (lowest precedence: OR).
func (p *Parser) parseExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.parseBinary(levelOr)
}

// The left-associative binary operator levels, loosest first. NOT and the
// comparison predicates sit between levelAnd and levelAdd.
const (
	levelOr = iota
	levelAnd
	levelAdd
	levelMul
)

// binaryOp reports whether the current token is a binary operator of the
// level, and its normalised spelling.
func (p *Parser) binaryOp(level int) (string, bool) {
	t := p.peek()
	switch level {
	case levelOr:
		return "OR", t.Kind == TokenKeyword && t.Text == "OR"
	case levelAnd:
		return "AND", t.Kind == TokenKeyword && t.Text == "AND"
	case levelAdd:
		return t.Text, t.Kind == TokenOperator && (t.Text == "+" || t.Text == "-" || t.Text == "||")
	default:
		return t.Text, t.Kind == TokenStar || t.Kind == TokenOperator && (t.Text == "/" || t.Text == "%")
	}
}

// parseOperand parses what the level's operators combine: the next tighter
// level.
func (p *Parser) parseOperand(level int) (Expr, error) {
	switch level {
	case levelOr:
		return p.parseBinary(levelAnd)
	case levelAnd:
		return p.parseNot()
	case levelAdd:
		return p.parseBinary(levelMul)
	default:
		return p.parseUnary()
	}
}

// parseBinary parses one level as operand (op operand)*, building a left-deep
// chain.
func (p *Parser) parseBinary(level int) (Expr, error) {
	outer := p.beginChain()
	left, err := p.parseOperand(level)
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.binaryOp(level)
		if !ok {
			p.endChain(outer)
			return left, nil
		}
		p.next()
		right, err := p.parseOperand(level)
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
		if err := p.link(); err != nil {
			return nil, err
		}
	}
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Expr: inner}, nil
	}
	return p.parsePredicate()
}

// parsePredicate parses comparison-level predicates including IN, BETWEEN,
// LIKE and IS NULL suffixes. Their operands are levelAdd expressions.
func (p *Parser) parsePredicate() (Expr, error) {
	left, err := p.parseBinary(levelAdd)
	if err != nil {
		return nil, err
	}
	// Optional NOT before IN/BETWEEN/LIKE.
	negated := false
	if p.isKeyword("NOT") &&
		(p.peekAt(1).Kind == TokenKeyword &&
			(p.peekAt(1).Text == "IN" || p.peekAt(1).Text == "BETWEEN" || p.peekAt(1).Text == "LIKE")) {
		p.next()
		negated = true
	}
	switch {
	case p.isKeyword("IN"):
		p.next()
		return p.parseInSuffix(left, negated)
	case p.isKeyword("BETWEEN"):
		p.next()
		low, err := p.parseBinary(levelAdd)
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		high, err := p.parseBinary(levelAdd)
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Not: negated, Expr: left, Low: low, High: high}, nil
	case p.isKeyword("LIKE"):
		p.next()
		pattern, err := p.parseBinary(levelAdd)
		if err != nil {
			return nil, err
		}
		return &LikeExpr{Not: negated, Expr: left, Pattern: pattern}, nil
	case p.isKeyword("IS"):
		p.next()
		not := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Not: not, Expr: left}, nil
	}
	if negated {
		return nil, p.errorf("expected IN, BETWEEN or LIKE after NOT")
	}
	// Comparison operators.
	if p.peek().Kind == TokenOperator {
		op := p.peek().Text
		switch op {
		case "=", "<>", "!=", "<", "<=", ">", ">=":
			p.next()
			if op == "!=" {
				op = "<>"
			}
			right, err := p.parseBinary(levelAdd)
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *Parser) parseInSuffix(left Expr, negated bool) (Expr, error) {
	if _, err := p.expect(TokenLParen); err != nil {
		return nil, err
	}
	in := &InExpr{Not: negated, Expr: left}
	if p.isKeyword("SELECT") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		in.Select = sel
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if p.peek().Kind == TokenComma {
				p.next()
				continue
			}
			break
		}
	}
	if _, err := p.expect(TokenRParen); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.Kind == TokenOperator && (t.Text == "-" || t.Text == "+") {
		p.next()
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold a unary minus into a numeric literal so that constants keep a
		// single canonical representation. An already negative literal is left
		// under the minus: folded, it would print as "--1", a comment.
		if lit, ok := inner.(*Literal); ok && lit.Kind == LiteralNumber && t.Text == "-" && !strings.HasPrefix(lit.Text, "-") {
			return &Literal{Kind: LiteralNumber, Text: "-" + lit.Text}, nil
		}
		if t.Text == "+" {
			return inner, nil
		}
		return &UnaryExpr{Op: t.Text, Expr: inner}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokenNumber:
		p.next()
		return &Literal{Kind: LiteralNumber, Text: t.Text}, nil
	case TokenString:
		p.next()
		return &Literal{Kind: LiteralString, Text: t.Text}, nil
	case TokenParam:
		p.next()
		return &ParamExpr{Text: t.Text}, nil
	case TokenLParen:
		p.next()
		if p.isKeyword("SELECT") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokenRParen); err != nil {
				return nil, err
			}
			return &SubqueryExpr{Select: sel}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokenRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokenKeyword:
		switch t.Text {
		case "TRUE", "FALSE":
			p.next()
			return &Literal{Kind: LiteralBool, Text: t.Text}, nil
		case "NULL":
			p.next()
			return &Literal{Kind: LiteralNull, Text: "NULL"}, nil
		case "EXISTS":
			p.next()
			if _, err := p.expect(TokenLParen); err != nil {
				return nil, err
			}
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokenRParen); err != nil {
				return nil, err
			}
			return &ExistsExpr{Select: sel}, nil
		case "CASE":
			return p.parseCase()
		}
		if identKeywords[t.Text] {
			return p.parseNameExpr()
		}
		return nil, p.errorf("unexpected keyword %s in expression", t.Text)
	case TokenIdent, TokenQuotedIdent:
		return p.parseNameExpr()
	default:
		return nil, p.errorf("unexpected token in expression")
	}
}

// parseNameExpr parses a column reference, qualified column reference or a
// function call starting at an identifier.
func (p *Parser) parseNameExpr() (Expr, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	// Function call.
	if p.peek().Kind == TokenLParen {
		p.next()
		call := &FuncCall{Name: strings.ToUpper(name)}
		if p.peek().Kind == TokenStar {
			p.next()
			call.Star = true
			if _, err := p.expect(TokenRParen); err != nil {
				return nil, err
			}
			return call, nil
		}
		if p.peek().Kind == TokenRParen {
			p.next()
			return call, nil
		}
		if p.acceptKeyword("DISTINCT") {
			call.Distinct = true
		}
		for {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, arg)
			if p.peek().Kind == TokenComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(TokenRParen); err != nil {
			return nil, err
		}
		return call, nil
	}
	// Qualified column: table.column
	if p.peek().Kind == TokenDot {
		p.next()
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: name, Name: col}, nil
	}
	return &ColumnRef{Name: name}, nil
}

func (p *Parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	if !p.isKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKeyword("WHEN") {
		when, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{When: when, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// DML / DDL
// ---------------------------------------------------------------------------

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: table}
	if p.peek().Kind == TokenLParen {
		p.next()
		for {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if p.peek().Kind == TokenComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(TokenRParen); err != nil {
			return nil, err
		}
	}
	if p.isKeyword("SELECT") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Select = sel
		return ins, nil
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(TokenLParen); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.peek().Kind == TokenComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(TokenRParen); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.peek().Kind == TokenComma {
			p.next()
			continue
		}
		break
	}
	return ins, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	upd := &UpdateStmt{Table: table}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if p.peek().Kind != TokenOperator || p.peek().Text != "=" {
			return nil, p.errorf("expected '=' in SET clause")
		}
		p.next()
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, Assignment{Column: col, Value: val})
		if p.peek().Kind == TokenComma {
			p.next()
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = w
	}
	return upd, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

// normalizeTypeName maps dialect type spellings onto the engine's canonical
// type names.
func normalizeTypeName(t string) string {
	switch strings.ToUpper(t) {
	case "INT", "INTEGER", "BIGINT":
		return "INT"
	case "FLOAT", "DOUBLE", "REAL":
		return "FLOAT"
	case "TEXT", "VARCHAR", "CHAR":
		return "TEXT"
	case "BOOL", "BOOLEAN":
		return "BOOL"
	case "TIMESTAMP", "DATE":
		return "TIMESTAMP"
	default:
		return strings.ToUpper(t)
	}
}

func (p *Parser) parseTypeName() (string, error) {
	t := p.peek()
	if t.Kind != TokenKeyword && t.Kind != TokenIdent {
		return "", p.errorf("expected type name")
	}
	p.next()
	name := normalizeTypeName(t.Text)
	// Optional length argument, e.g. VARCHAR(255).
	if p.peek().Kind == TokenLParen {
		p.next()
		if _, err := p.expect(TokenNumber); err != nil {
			return "", err
		}
		if _, err := p.expect(TokenRParen); err != nil {
			return "", err
		}
	}
	return name, nil
}

func (p *Parser) parseCreateTable() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfNotExists = true
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt.Table = name
	if _, err := p.expect(TokenLParen); err != nil {
		return nil, err
	}
	for {
		colName, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		typ, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		def := ColumnDef{Name: colName, Type: typ}
		for {
			switch {
			case p.isKeyword("PRIMARY"):
				p.next()
				if err := p.expectKeyword("KEY"); err != nil {
					return nil, err
				}
				def.PrimaryKey = true
			case p.isKeyword("NOT"):
				p.next()
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
				def.NotNull = true
			case p.isKeyword("UNIQUE"):
				p.next()
				def.Unique = true
			default:
				goto colDone
			}
		}
	colDone:
		stmt.Columns = append(stmt.Columns, def)
		if p.peek().Kind == TokenComma {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(TokenRParen); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *Parser) parseDropTable() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	stmt := &DropTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfExists = true
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt.Table = name
	return stmt, nil
}

func (p *Parser) parseAlterTable() (Statement, error) {
	if err := p.expectKeyword("ALTER"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	stmt := &AlterTableStmt{Table: table}
	switch {
	case p.acceptKeyword("ADD"):
		p.acceptKeyword("COLUMN")
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		typ, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		stmt.Action = AlterAddColumn
		stmt.Column = ColumnDef{Name: name, Type: typ}
	case p.acceptKeyword("DROP"):
		p.acceptKeyword("COLUMN")
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		stmt.Action = AlterDropColumn
		stmt.OldName = name
	case p.acceptKeyword("RENAME"):
		if p.acceptKeyword("COLUMN") {
			old, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("TO"); err != nil {
				return nil, err
			}
			nw, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			stmt.Action = AlterRenameColumn
			stmt.OldName = old
			stmt.NewName = nw
		} else {
			if err := p.expectKeyword("TO"); err != nil {
				return nil, err
			}
			nw, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			stmt.Action = AlterRenameTable
			stmt.NewName = nw
		}
	default:
		return nil, p.errorf("expected ADD, DROP or RENAME after ALTER TABLE")
	}
	return stmt, nil
}
