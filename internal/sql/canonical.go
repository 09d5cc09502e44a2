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

// PartialNames is the parse-free reader of a partially written query: the
// table names (identifiers of the FROM clause that do not follow another
// identifier, which would make them aliases) and the attribute names (the
// second part of every qualified a.b, and the identifiers of the SELECT,
// WHERE, GROUP BY, HAVING and ORDER BY clauses) it names, each once, in
// order of appearance. An identifier before the first clause keyword names
// nothing. Like MaskConstants it tokenizes and never recurses; text that does
// not tokenize names nothing.
func PartialNames(text string) (tables, attrs []string) {
	toks, err := Tokenize(text)
	if err != nil {
		return nil, nil
	}
	isIdent := func(t Token) bool { return t.Kind == TokenIdent || t.Kind == TokenQuotedIdent }
	seenT, seenA := map[string]bool{}, map[string]bool{}
	add := func(names []string, seen map[string]bool, name string) []string {
		if seen[name] {
			return names
		}
		seen[name] = true
		return append(names, name)
	}
	clause := ""
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.Kind == TokenKeyword {
			switch t.Text {
			case "SELECT", "FROM", "WHERE", "GROUP", "HAVING", "ORDER":
				clause = t.Text
			}
			continue
		}
		if !isIdent(t) {
			continue
		}
		// In a qualified a.b the qualifier may be an alias; b is an attribute.
		if i+2 < len(toks) && toks[i+1].Kind == TokenDot && isIdent(toks[i+2]) {
			attrs = add(attrs, seenA, toks[i+2].Text)
			i += 2
			continue
		}
		switch clause {
		case "FROM":
			if i == 0 || !isIdent(toks[i-1]) {
				tables = add(tables, seenT, t.Text)
			}
		case "":
		default:
			attrs = add(attrs, seenA, t.Text)
		}
	}
	return tables, attrs
}
