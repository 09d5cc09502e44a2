package sql

import "strings"

// Statement is implemented by all top-level SQL statements.
type Statement interface {
	// SQL renders the statement back into SQL text.
	SQL() string
	statementNode()
}

// Expr is implemented by all expression nodes.
type Expr interface {
	// SQL renders the expression as SQL text.
	SQL() string
	exprNode()
}

// TableRef is a relation appearing in a FROM clause: a base table, a derived
// table (sub-query) or a join of two table references.
type TableRef interface {
	SQL() string
	tableRefNode()
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// SelectStmt is a SELECT query, possibly with set operations chained via
// Compound.
type SelectStmt struct {
	Distinct bool
	Columns  []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    *LimitClause
	// Compound, if non-nil, chains a set operation (UNION/EXCEPT/INTERSECT)
	// with another SELECT.
	Compound *CompoundClause
}

// CompoundClause chains a set operation onto a SelectStmt.
type CompoundClause struct {
	Op    string // UNION, EXCEPT, INTERSECT
	All   bool
	Right *SelectStmt
}

// SelectItem is one element of the SELECT list.
type SelectItem struct {
	// Star is true for a bare `*`. TableStar holds the table name for
	// `t.*`. Otherwise Expr holds the projected expression and Alias an
	// optional output name.
	Star      bool
	TableStar string
	Expr      Expr
	Alias     string
}

// OrderItem is one element of the ORDER BY clause.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// LimitClause holds LIMIT/OFFSET values.
type LimitClause struct {
	Count  int64
	Offset int64
	// HasOffset distinguishes "OFFSET 0" from no offset at all.
	HasOffset bool
}

// InsertStmt is an INSERT ... VALUES statement. Either Rows or Select is set.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
	Select  *SelectStmt
}

// UpdateStmt is an UPDATE statement.
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one column = expr pair in an UPDATE SET list.
type Assignment struct {
	Column string
	Value  Expr
}

// DeleteStmt is a DELETE statement.
type DeleteStmt struct {
	Table string
	Where Expr
}

// ColumnDef is a column definition in CREATE TABLE or ALTER TABLE ADD COLUMN.
type ColumnDef struct {
	Name       string
	Type       string // normalised upper-case type name, e.g. INT, FLOAT, TEXT
	PrimaryKey bool
	NotNull    bool
	Unique     bool
}

// CreateTableStmt is a CREATE TABLE statement.
type CreateTableStmt struct {
	Table       string
	IfNotExists bool
	Columns     []ColumnDef
}

// DropTableStmt is a DROP TABLE statement.
type DropTableStmt struct {
	Table    string
	IfExists bool
}

// AlterAction enumerates supported ALTER TABLE actions.
type AlterAction int

// Supported ALTER TABLE actions.
const (
	AlterAddColumn AlterAction = iota
	AlterDropColumn
	AlterRenameColumn
	AlterRenameTable
)

// AlterTableStmt is an ALTER TABLE statement supporting the actions that the
// maintenance component's schema-evolution scenarios need.
type AlterTableStmt struct {
	Table   string
	Action  AlterAction
	Column  ColumnDef // for ADD COLUMN
	OldName string    // for DROP COLUMN / RENAME COLUMN
	NewName string    // for RENAME COLUMN / RENAME TABLE
}

func (*SelectStmt) statementNode()      {}
func (*InsertStmt) statementNode()      {}
func (*UpdateStmt) statementNode()      {}
func (*DeleteStmt) statementNode()      {}
func (*CreateTableStmt) statementNode() {}
func (*DropTableStmt) statementNode()   {}
func (*AlterTableStmt) statementNode()  {}

// ---------------------------------------------------------------------------
// Table references
// ---------------------------------------------------------------------------

// TableName references a base relation, optionally aliased.
type TableName struct {
	Name  string
	Alias string
}

// JoinType enumerates join flavours.
type JoinType int

// Join flavours.
const (
	JoinInner JoinType = iota
	JoinLeft
	JoinRight
	JoinFull
	JoinCross
)

// String returns the SQL keyword spelling of the join type.
func (j JoinType) String() string {
	switch j {
	case JoinInner:
		return "JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinRight:
		return "RIGHT JOIN"
	case JoinFull:
		return "FULL JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return "JOIN"
	}
}

// JoinExpr is an explicit join between two table references.
type JoinExpr struct {
	Type  JoinType
	Left  TableRef
	Right TableRef
	On    Expr
	Using []string
}

// SubqueryRef is a derived table: a parenthesised SELECT with an alias.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

func (*TableName) tableRefNode()   {}
func (*JoinExpr) tableRefNode()    {}
func (*SubqueryRef) tableRefNode() {}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// ColumnRef references a column, optionally qualified by a table or alias.
type ColumnRef struct {
	Table string
	Name  string
}

// LiteralKind identifies the type of a literal.
type LiteralKind int

// Literal kinds.
const (
	LiteralNumber LiteralKind = iota
	LiteralString
	LiteralBool
	LiteralNull
)

// Literal is a constant value in the query text.
type Literal struct {
	Kind LiteralKind
	// Text is the literal as written (numbers keep their original spelling;
	// strings exclude quotes; booleans are "TRUE"/"FALSE"; null is "NULL").
	Text string
}

// BinaryExpr is a binary operation: comparisons, arithmetic, AND/OR and
// string concatenation.
type BinaryExpr struct {
	Op    string // normalised: =, <>, <, <=, >, >=, +, -, *, /, %, AND, OR, ||
	Left  Expr
	Right Expr
}

// UnaryExpr is NOT expr or -expr / +expr.
type UnaryExpr struct {
	Op   string // NOT, -, +
	Expr Expr
}

// FuncCall is a function invocation such as COUNT(*), SUM(x), LOWER(s).
type FuncCall struct {
	Name     string // normalised upper-case
	Star     bool   // COUNT(*)
	Distinct bool
	Args     []Expr
}

// InExpr is expr [NOT] IN (list) or expr [NOT] IN (subquery).
type InExpr struct {
	Not    bool
	Expr   Expr
	List   []Expr
	Select *SelectStmt
}

// BetweenExpr is expr [NOT] BETWEEN low AND high.
type BetweenExpr struct {
	Not  bool
	Expr Expr
	Low  Expr
	High Expr
}

// LikeExpr is expr [NOT] LIKE pattern.
type LikeExpr struct {
	Not     bool
	Expr    Expr
	Pattern Expr
}

// IsNullExpr is expr IS [NOT] NULL.
type IsNullExpr struct {
	Not  bool
	Expr Expr
}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Not    bool
	Select *SelectStmt
}

// SubqueryExpr is a scalar sub-query used as an expression.
type SubqueryExpr struct {
	Select *SelectStmt
}

// CaseExpr is a searched or simple CASE expression.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr
}

// CaseWhen is one WHEN ... THEN ... arm of a CASE expression.
type CaseWhen struct {
	When Expr
	Then Expr
}

// ParamExpr is a positional parameter placeholder (? or $n).
type ParamExpr struct {
	Text string
}

func (*ColumnRef) exprNode()    {}
func (*Literal) exprNode()      {}
func (*BinaryExpr) exprNode()   {}
func (*UnaryExpr) exprNode()    {}
func (*FuncCall) exprNode()     {}
func (*InExpr) exprNode()       {}
func (*BetweenExpr) exprNode()  {}
func (*LikeExpr) exprNode()     {}
func (*IsNullExpr) exprNode()   {}
func (*ExistsExpr) exprNode()   {}
func (*SubqueryExpr) exprNode() {}
func (*CaseExpr) exprNode()     {}
func (*ParamExpr) exprNode()    {}

// IsAggregate reports whether the function name is one of the aggregate
// functions understood by the execution engine.
func (f *FuncCall) IsAggregate() bool {
	switch strings.ToUpper(f.Name) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	default:
		return false
	}
}
