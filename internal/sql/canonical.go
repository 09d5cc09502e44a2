package sql

import "strings"

// Template returns the canonical form of the statement with every literal
// constant replaced by '?'. Queries in the same session that differ only in
// constants ("temp < 18" vs "temp < 22") share a template, which is what the
// session detector and the edit-pattern miner compare.
func Template(stmt Statement) string {
	if _, ok := stmt.(*SelectStmt); ok {
		return printStatement(stmt, true)
	}
	return MaskConstants(stmt.SQL())
}

// MaskConstants is the parse-free template: it rewrites string and numeric
// literals in the token stream to '?'. It serves statements that are not
// SELECTs and text that does not parse at all; it tokenizes and never
// recurses, so no input can make it deep.
func MaskConstants(text string) string {
	toks, err := Tokenize(text)
	if err != nil {
		return strings.ToUpper(strings.Join(strings.Fields(text), " "))
	}
	parts := make([]string, 0, len(toks))
	for _, t := range toks {
		switch t.Kind {
		case TokenEOF:
		case TokenNumber, TokenString:
			parts = append(parts, "?")
		default:
			parts = append(parts, t.Text)
		}
	}
	return strings.Join(parts, " ")
}
