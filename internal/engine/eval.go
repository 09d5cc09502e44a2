package engine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sql"
)

// expr is an expression bound to a scope. compile resolves every column
// reference to a tuple position — or to the not-found / ambiguous error that
// resolving it produces, returned when the reference is evaluated, so an
// expression that is never reached still never fails — and converts every
// literal, once per statement; evaluating the result per row touches no name
// and parses no number.
type expr func(en *env) (Value, error)

// predicate is an expr collapsed to SQL's WHERE truth: NULL counts as false.
type predicate func(en *env) (bool, error)

// compiler binds the expressions of one statement to the shape of the
// relation its loops walk and to the environments of the enclosing
// statements, which stand still while the statement runs.
type compiler struct {
	eng   *Engine
	rel   *relation
	outer *env
}

// column binds a column reference: to the innermost scope that has the name,
// climbing outwards for correlated references. An ambiguous name stops the
// climb.
func (c *compiler) column(n *sql.ColumnRef) expr {
	idx, err := c.rel.lookup(n.Table, n.Name)
	if err == nil {
		leaf, pos := c.rel.cols[idx].leaf, c.rel.cols[idx].pos
		return func(en *env) (Value, error) {
			if r := en.tuple[leaf]; pos < len(r) {
				return r[pos], nil
			}
			return Null, nil
		}
	}
	for scope := c.outer; scope != nil && !errors.Is(err, ErrAmbiguousColumn); scope = scope.outer {
		if idx, err = scope.rel.lookup(n.Table, n.Name); err == nil {
			scope, leaf, pos := scope, scope.rel.cols[idx].leaf, scope.rel.cols[idx].pos
			return func(*env) (Value, error) {
				if r := scope.tuple[leaf]; pos < len(r) {
					return r[pos], nil
				}
				return Null, nil
			}
		}
	}
	if !errors.Is(err, ErrAmbiguousColumn) {
		err = columnNotFound(n.Table, n.Name)
	}
	return constant(Null, err)
}

// constant is an expression that evaluates to the same outcome for every row.
func constant(v Value, err error) expr {
	return func(*env) (Value, error) { return v, err }
}

// predicate compiles e as a filter condition; NULL and errors from NULL
// comparisons count as false (SQL three-valued logic collapsed to boolean).
func (c *compiler) predicate(e sql.Expr) predicate {
	f := c.compile(e)
	return func(en *env) (bool, error) {
		v, err := f(en)
		if err != nil {
			if err == errNullComparison {
				return false, nil
			}
			return false, err
		}
		if v.Type == TypeBool {
			return v.Bool, nil
		}
		if v.IsNull() {
			return false, nil
		}
		b, err := v.Coerce(TypeBool)
		if err != nil {
			return false, fmt.Errorf("engine: predicate is not boolean: %s", e.SQL())
		}
		return b.Bool, nil
	}
}

func (c *compiler) compileAll(es []sql.Expr) []expr {
	out := make([]expr, len(es))
	for i, e := range es {
		out[i] = c.compile(e)
	}
	return out
}

func (c *compiler) compile(e sql.Expr) expr {
	switch n := e.(type) {
	case *sql.Literal:
		return constant(literalValue(n))
	case *sql.ColumnRef:
		return c.column(n)
	case *sql.ParamExpr:
		return constant(Null, fmt.Errorf("engine: unbound parameter %s", n.Text))
	case *sql.UnaryExpr:
		inner, op := c.compile(n.Expr), n.Op
		return func(en *env) (Value, error) {
			v, err := inner(en)
			if err != nil {
				return Null, err
			}
			return unaryValue(op, v)
		}
	case *sql.BinaryExpr:
		return c.compileBinary(n)
	case *sql.FuncCall:
		if n.IsAggregate() {
			return constant(Null, fmt.Errorf("engine: aggregate %s used outside aggregation context", n.Name))
		}
		// args is scratch shared by every call of this node: nothing evaluated
		// under the node can re-enter it, and callScalarFunc does not keep it.
		name, items, args := strings.ToUpper(n.Name), c.compileAll(n.Args), make([]Value, len(n.Args))
		return func(en *env) (Value, error) {
			for i, item := range items {
				v, err := item(en)
				if err != nil {
					return Null, err
				}
				args[i] = v
			}
			return callScalarFunc(name, args)
		}
	case *sql.InExpr:
		return c.compileIn(n)
	case *sql.BetweenExpr:
		val, low, high, not := c.compile(n.Expr), c.compile(n.Low), c.compile(n.High), n.Not
		return func(en *env) (Value, error) {
			v, err := val(en)
			if err != nil {
				return Null, err
			}
			lo, err := low(en)
			if err != nil {
				return Null, err
			}
			hi, err := high(en)
			if err != nil {
				return Null, err
			}
			if v.IsNull() || lo.IsNull() || hi.IsNull() {
				return Null, nil
			}
			cl, err := v.Compare(lo)
			if err != nil {
				return Null, err
			}
			ch, err := v.Compare(hi)
			if err != nil {
				return Null, err
			}
			return NewBool((cl >= 0 && ch <= 0) != not), nil
		}
	case *sql.LikeExpr:
		val, pattern, not := c.compile(n.Expr), c.compile(n.Pattern), n.Not
		// A literal pattern is lower-cased here, once, instead of on every row.
		lowered := ""
		lit, literal := n.Pattern.(*sql.Literal)
		if literal {
			p, err := literalValue(lit)
			lowered, literal = strings.ToLower(p.String()), err == nil && !p.IsNull()
		}
		return func(en *env) (Value, error) {
			v, err := val(en)
			if err != nil {
				return Null, err
			}
			p, err := pattern(en)
			if err != nil {
				return Null, err
			}
			if v.IsNull() || p.IsNull() {
				return Null, nil
			}
			lp := lowered
			if !literal {
				lp = strings.ToLower(p.String())
			}
			return NewBool(likeMatch(v.String(), lp) != not), nil
		}
	case *sql.IsNullExpr:
		inner, not := c.compile(n.Expr), n.Not
		return func(en *env) (Value, error) {
			v, err := inner(en)
			if err != nil {
				return Null, err
			}
			return NewBool(v.IsNull() != not), nil
		}
	case *sql.ExistsExpr:
		eng, sel, not := c.eng, n.Select, n.Not
		return func(en *env) (Value, error) {
			rel, err := eng.execSelect(sel, en)
			if err != nil {
				return Null, err
			}
			return NewBool((rel.n > 0) != not), nil
		}
	case *sql.SubqueryExpr:
		eng, sel := c.eng, n.Select
		return func(en *env) (Value, error) {
			rel, err := eng.execSelect(sel, en)
			if err != nil {
				return Null, err
			}
			if rel.n == 0 || len(rel.refs[0]) == 0 {
				return Null, nil
			}
			return rel.refs[0][0], nil
		}
	case *sql.CaseExpr:
		return c.compileCase(n)
	default:
		return constant(Null, fmt.Errorf("engine: unsupported expression %T", e))
	}
}

func literalValue(l *sql.Literal) (Value, error) {
	switch l.Kind {
	case sql.LiteralNull:
		return Null, nil
	case sql.LiteralBool:
		return NewBool(strings.EqualFold(l.Text, "TRUE")), nil
	case sql.LiteralString:
		return NewText(l.Text), nil
	case sql.LiteralNumber:
		if !strings.ContainsAny(l.Text, ".eE") {
			n, err := strconv.ParseInt(l.Text, 10, 64)
			if err == nil {
				return NewInt(n), nil
			}
		}
		f, err := strconv.ParseFloat(l.Text, 64)
		if err != nil {
			return Null, fmt.Errorf("engine: invalid number literal %q", l.Text)
		}
		return NewFloat(f), nil
	default:
		return Null, fmt.Errorf("engine: unknown literal kind %d", l.Kind)
	}
}

func unaryValue(op string, v Value) (Value, error) {
	switch op {
	case "NOT":
		if v.IsNull() {
			return Null, nil
		}
		b, err := v.Coerce(TypeBool)
		if err != nil {
			return Null, err
		}
		return NewBool(!b.Bool), nil
	case "-":
		switch v.Type {
		case TypeInt:
			return NewInt(-v.Int), nil
		case TypeFloat:
			return NewFloat(-v.Float), nil
		case TypeNull:
			return Null, nil
		}
		return Null, fmt.Errorf("engine: cannot negate %s", v.Type)
	case "+":
		return v, nil
	default:
		return Null, fmt.Errorf("engine: unknown unary operator %q", op)
	}
}

// compileBinary short-circuits AND and OR over the WHERE truth of their
// operands; every other operator evaluates both sides.
func (c *compiler) compileBinary(n *sql.BinaryExpr) expr {
	if n.Op == "AND" || n.Op == "OR" {
		left, right, stop := c.predicate(n.Left), c.predicate(n.Right), n.Op == "OR"
		return func(en *env) (Value, error) {
			b, err := left(en)
			if err != nil {
				return Null, err
			}
			if b != stop {
				if b, err = right(en); err != nil {
					return Null, err
				}
			}
			return NewBool(b), nil
		}
	}
	left, right, op := c.compile(n.Left), c.compile(n.Right), n.Op
	return func(en *env) (Value, error) {
		l, err := left(en)
		if err != nil {
			return Null, err
		}
		r, err := right(en)
		if err != nil {
			return Null, err
		}
		return binaryValues(op, l, r)
	}
}

// binaryValues applies a binary operator to two evaluated values. AND and OR
// arrive here only from expressions over aggregates, which evaluate both
// sides.
func binaryValues(op string, left, right Value) (Value, error) {
	switch op {
	case "AND", "OR":
		if left.IsNull() || right.IsNull() {
			return Null, nil
		}
		lb, err := left.Coerce(TypeBool)
		if err != nil {
			return Null, err
		}
		rb, err := right.Coerce(TypeBool)
		if err != nil {
			return Null, err
		}
		if op == "AND" {
			return NewBool(lb.Bool && rb.Bool), nil
		}
		return NewBool(lb.Bool || rb.Bool), nil
	case "=", "<>", "<", "<=", ">", ">=":
		if left.IsNull() || right.IsNull() {
			return Null, nil
		}
		c, err := left.Compare(right)
		if err != nil {
			return Null, err
		}
		var out bool
		switch op {
		case "=":
			out = c == 0
		case "<>":
			out = c != 0
		case "<":
			out = c < 0
		case "<=":
			out = c <= 0
		case ">":
			out = c > 0
		case ">=":
			out = c >= 0
		}
		return NewBool(out), nil
	case "||":
		if left.IsNull() || right.IsNull() {
			return Null, nil
		}
		return NewText(left.String() + right.String()), nil
	default:
		return arith(op, left, right)
	}
}

func (c *compiler) compileIn(n *sql.InExpr) expr {
	target, not := c.compile(n.Expr), n.Not
	if n.Select != nil {
		eng, sel := c.eng, n.Select
		return func(en *env) (Value, error) {
			t, err := target(en)
			if err != nil || t.IsNull() {
				return Null, err
			}
			rel, err := eng.execSelect(sel, en)
			if err != nil {
				return Null, err
			}
			match := false
			for _, row := range rel.refs {
				if len(row) > 0 && t.Equal(row[0]) {
					match = true
					break
				}
			}
			return NewBool(match != not), nil
		}
	}
	list := c.compileAll(n.List)
	return func(en *env) (Value, error) {
		t, err := target(en)
		if err != nil || t.IsNull() {
			return Null, err
		}
		match := false
		for _, item := range list {
			v, err := item(en)
			if err != nil {
				return Null, err
			}
			if t.Equal(v) {
				match = true
				break
			}
		}
		return NewBool(match != not), nil
	}
}

func (c *compiler) compileCase(n *sql.CaseExpr) expr {
	type arm struct {
		when predicate // searched CASE
		is   expr      // simple CASE: compared with the operand
		then expr
	}
	arms := make([]arm, len(n.Whens))
	for i, w := range n.Whens {
		arms[i].then = c.compile(w.Then)
		if n.Operand != nil {
			arms[i].is = c.compile(w.When)
		} else {
			arms[i].when = c.predicate(w.When)
		}
	}
	otherwise := constant(Null, nil)
	if n.Else != nil {
		otherwise = c.compile(n.Else)
	}
	if n.Operand == nil {
		return func(en *env) (Value, error) {
			for _, a := range arms {
				ok, err := a.when(en)
				if err != nil {
					return Null, err
				}
				if ok {
					return a.then(en)
				}
			}
			return otherwise(en)
		}
	}
	operand := c.compile(n.Operand)
	return func(en *env) (Value, error) {
		op, err := operand(en)
		if err != nil {
			return Null, err
		}
		for _, a := range arms {
			v, err := a.is(en)
			if err != nil {
				return Null, err
			}
			if op.Equal(v) {
				return a.then(en)
			}
		}
		return otherwise(en)
	}
}

func arith(op string, left, right Value) (Value, error) {
	if left.IsNull() || right.IsNull() {
		return Null, nil
	}
	// Integer arithmetic when both sides are INT (except division, which
	// follows SQL convention of integer division).
	if left.Type == TypeInt && right.Type == TypeInt {
		a, b := left.Int, right.Int
		switch op {
		case "+":
			return NewInt(a + b), nil
		case "-":
			return NewInt(a - b), nil
		case "*":
			return NewInt(a * b), nil
		case "/":
			if b == 0 {
				return Null, fmt.Errorf("engine: division by zero")
			}
			return NewInt(a / b), nil
		case "%":
			if b == 0 {
				return Null, fmt.Errorf("engine: division by zero")
			}
			return NewInt(a % b), nil
		}
	}
	lf, lok := left.asFloat()
	rf, rok := right.asFloat()
	if !lok || !rok {
		return Null, fmt.Errorf("engine: arithmetic on non-numeric values %s and %s", left.Type, right.Type)
	}
	switch op {
	case "+":
		return NewFloat(lf + rf), nil
	case "-":
		return NewFloat(lf - rf), nil
	case "*":
		return NewFloat(lf * rf), nil
	case "/":
		if rf == 0 {
			return Null, fmt.Errorf("engine: division by zero")
		}
		return NewFloat(lf / rf), nil
	case "%":
		if rf == 0 {
			return Null, fmt.Errorf("engine: division by zero")
		}
		return NewFloat(float64(int64(lf) % int64(rf))), nil
	default:
		return Null, fmt.Errorf("engine: unknown arithmetic operator %q", op)
	}
}

// callScalarFunc applies the scalar function of that (upper-case) name.
func callScalarFunc(name string, args []Value) (Value, error) {
	switch name {
	case "LOWER":
		if len(args) != 1 {
			return Null, fmt.Errorf("engine: LOWER expects 1 argument")
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewText(strings.ToLower(args[0].String())), nil
	case "UPPER":
		if len(args) != 1 {
			return Null, fmt.Errorf("engine: UPPER expects 1 argument")
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewText(strings.ToUpper(args[0].String())), nil
	case "LENGTH":
		if len(args) != 1 {
			return Null, fmt.Errorf("engine: LENGTH expects 1 argument")
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewInt(int64(len(args[0].String()))), nil
	case "ABS":
		if len(args) != 1 {
			return Null, fmt.Errorf("engine: ABS expects 1 argument")
		}
		v := args[0]
		switch v.Type {
		case TypeInt:
			if v.Int < 0 {
				return NewInt(-v.Int), nil
			}
			return v, nil
		case TypeFloat:
			if v.Float < 0 {
				return NewFloat(-v.Float), nil
			}
			return v, nil
		case TypeNull:
			return Null, nil
		}
		return Null, fmt.Errorf("engine: ABS on non-numeric value")
	case "ROUND":
		if len(args) < 1 || args[0].IsNull() {
			return Null, nil
		}
		f, ok := args[0].asFloat()
		if !ok {
			return Null, fmt.Errorf("engine: ROUND on non-numeric value")
		}
		scale := 0.0
		if len(args) > 1 {
			s, ok := args[1].asFloat()
			if !ok {
				return Null, fmt.Errorf("engine: ROUND scale must be numeric")
			}
			scale = s
		}
		mult := 1.0
		for i := 0; i < int(scale); i++ {
			mult *= 10
		}
		v := f * mult
		if v >= 0 {
			v = float64(int64(v + 0.5))
		} else {
			v = float64(int64(v - 0.5))
		}
		return NewFloat(v / mult), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null, nil
	case "SUBSTR", "SUBSTRING":
		if len(args) < 2 || args[0].IsNull() {
			return Null, nil
		}
		s := args[0].String()
		start, ok := args[1].asFloat()
		if !ok {
			return Null, fmt.Errorf("engine: SUBSTR start must be numeric")
		}
		i := int(start) - 1
		if i < 0 {
			i = 0
		}
		if i > len(s) {
			i = len(s)
		}
		end := len(s)
		if len(args) > 2 {
			n, ok := args[2].asFloat()
			if !ok {
				return Null, fmt.Errorf("engine: SUBSTR length must be numeric")
			}
			end = i + int(n)
			if end > len(s) {
				end = len(s)
			}
		}
		return NewText(s[i:end]), nil
	default:
		return Null, fmt.Errorf("engine: unknown function %s", name)
	}
}

// likeMatch implements SQL LIKE with % and _ wildcards, case-insensitive:
// pattern is lower-cased already.
func likeMatch(s, pattern string) bool {
	return likeMatchRec(strings.ToLower(s), pattern)
}

func likeMatchRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive wildcards.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeMatchRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s = s[1:]
			p = p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s = s[1:]
			p = p[1:]
		}
	}
	return len(s) == 0
}
