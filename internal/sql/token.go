// Package sql implements a lexer, parser, AST and utilities for the SQL
// subset used throughout the CQMS: SELECT queries with joins, nested
// sub-queries, grouping, ordering and limits, plus the DML and DDL statements
// needed by the profiler, the workload generator and the maintenance
// component (INSERT, UPDATE, DELETE, CREATE/DROP/ALTER TABLE).
//
// The package is the syntactic substrate of the system described in
// "A Case for A Collaborative Query Management System" (CIDR 2009): every
// query logged by the Query Profiler is parsed here, and every syntactic
// query feature stored in the Query Storage is extracted from these ASTs.
package sql

import "fmt"

// TokenKind identifies the lexical class of a token.
type TokenKind int

// Token kinds produced by the Lexer.
const (
	TokenEOF TokenKind = iota
	TokenIdent
	TokenQuotedIdent
	TokenKeyword
	TokenNumber
	TokenString
	TokenOperator
	TokenComma
	TokenLParen
	TokenRParen
	TokenDot
	TokenSemicolon
	TokenStar
	TokenParam // placeholder parameter such as ? or $1
)

var tokenKindNames = map[TokenKind]string{
	TokenEOF:         "EOF",
	TokenIdent:       "identifier",
	TokenQuotedIdent: "quoted identifier",
	TokenKeyword:     "keyword",
	TokenNumber:      "number",
	TokenString:      "string",
	TokenOperator:    "operator",
	TokenComma:       "comma",
	TokenLParen:      "left paren",
	TokenRParen:      "right paren",
	TokenDot:         "dot",
	TokenSemicolon:   "semicolon",
	TokenStar:        "star",
	TokenParam:       "parameter",
}

// String returns a human-readable name for the token kind.
func (k TokenKind) String() string {
	if s, ok := tokenKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Token is a single lexical token with its position in the input.
type Token struct {
	Kind TokenKind
	// Text is the raw text of the token. For keywords it is upper-cased;
	// for quoted identifiers the quotes are stripped.
	Text string
	// Pos is the byte offset of the first character of the token.
	Pos int
	// Line and Col are 1-based line and column numbers for error messages.
	Line int
	Col  int
}

// String renders the token for diagnostics.
func (t Token) String() string {
	if t.Kind == TokenEOF {
		return "EOF"
	}
	return fmt.Sprintf("%s %q", t.Kind, t.Text)
}

// keywords is the set of reserved words recognised by the lexer. The value
// is always true; membership is what matters.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "OFFSET": true,
	"ASC": true, "DESC": true, "DISTINCT": true, "ALL": true,
	"AS": true, "ON": true, "USING": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true, "FULL": true,
	"OUTER": true, "CROSS": true, "NATURAL": true,
	"AND": true, "OR": true, "NOT": true,
	"IN": true, "BETWEEN": true, "LIKE": true, "IS": true, "NULL": true,
	"EXISTS": true, "ANY": true, "SOME": true,
	"TRUE": true, "FALSE": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"UPDATE": true, "SET": true, "DELETE": true,
	"CREATE": true, "TABLE": true, "DROP": true, "ALTER": true,
	"ADD": true, "COLUMN": true, "RENAME": true, "TO": true,
	"PRIMARY": true, "KEY": true, "UNIQUE": true,
	"INT": true, "INTEGER": true, "BIGINT": true, "FLOAT": true,
	"DOUBLE": true, "REAL": true, "TEXT": true, "VARCHAR": true,
	"CHAR": true, "BOOLEAN": true, "BOOL": true, "TIMESTAMP": true,
	"DATE":  true,
	"UNION": true, "EXCEPT": true, "INTERSECT": true,
	"IF": true,
}

// identKeywords are the reserved words the parser nevertheless reads as
// identifiers where one is expected (parseIdent, which lower-cases them): type
// names that are common column names.
var identKeywords = map[string]bool{
	"DATE": true, "TIMESTAMP": true, "TEXT": true, "KEY": true, "COLUMN": true,
}

// IsKeyword reports whether the upper-cased word is a reserved SQL keyword
// in this dialect.
func IsKeyword(word string) bool {
	return keywords[word]
}
