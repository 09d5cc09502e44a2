package pgwire

import (
	"strings"
	"time"
)

// Captured is one statement observed on a proxied connection, ready for
// submission into the CQMS.
type Captured struct {
	// SQL is the statement text as the client sent it (one statement; a
	// multi-statement simple Query is split into its parts).
	SQL string
	// User and Database are the session's startup parameters.
	User     string
	Database string
	// Kind is "simple" for Query messages and "extended" for Execute
	// messages resolved through a prepared statement.
	Kind string
	// At is when the proxy observed the statement.
	At time.Time
}

// Capture kinds.
const (
	KindSimple   = "simple"
	KindExtended = "extended"
)

// tracker decodes the capture-relevant frontend messages of one connection
// and maintains the extended-protocol name tables: prepared statements
// (name → SQL) and portals (name → the SQL of the statement they were bound
// from), so that an Execute is attributed to the text it actually runs.
//
// A tracker belongs to a single connection's read loop and is not safe for
// concurrent use.
type tracker struct {
	user     string
	database string
	now      func() time.Time

	statements map[string]string // prepared-statement name → SQL
	portals    map[string]string // portal name → SQL
}

func newTracker(user, database string, now func() time.Time) *tracker {
	if now == nil {
		now = time.Now
	}
	return &tracker{
		user:       user,
		database:   database,
		now:        now,
		statements: map[string]string{},
		portals:    map[string]string{},
	}
}

// observe decodes one frontend message and returns the statements it
// captures, if any. Undecodable payloads are ignored (the backend will answer
// them with its own error; the proxy never injects one mid-session).
func (t *tracker) observe(m Message) []Captured {
	switch m.Type {
	case typeQuery:
		sql, err := ParseQuery(m.Payload)
		if err != nil {
			return nil
		}
		// The simple protocol implicitly closes the unnamed statement and
		// portal.
		delete(t.statements, "")
		delete(t.portals, "")
		parts := SplitStatements(sql)
		if len(parts) == 0 {
			return nil
		}
		out := make([]Captured, 0, len(parts))
		at := t.now()
		for _, part := range parts {
			out = append(out, Captured{
				SQL: part, User: t.user, Database: t.database,
				Kind: KindSimple, At: at,
			})
		}
		return out
	case typeParse:
		name, query, err := ParseParse(m.Payload)
		if err != nil {
			return nil
		}
		t.statements[name] = query
		return nil
	case typeBind:
		portal, statement, err := ParseBind(m.Payload)
		if err != nil {
			return nil
		}
		if sqlText, ok := t.statements[statement]; ok {
			t.portals[portal] = sqlText
		} else {
			// Bind against a statement this connection never Parsed (e.g. a
			// statement prepared before the proxy attached): nothing to
			// attribute, and the backend will error anyway.
			delete(t.portals, portal)
		}
		return nil
	case typeExecute:
		portal, err := ParseExecute(m.Payload)
		if err != nil {
			return nil
		}
		sqlText, ok := t.portals[portal]
		if !ok || strings.TrimSpace(sqlText) == "" {
			return nil
		}
		return []Captured{{
			SQL: sqlText, User: t.user, Database: t.database,
			Kind: KindExtended, At: t.now(),
		}}
	case typeClose:
		kind, name, err := ParseClose(m.Payload)
		if err != nil {
			return nil
		}
		switch kind {
		case 'S':
			delete(t.statements, name)
		case 'P':
			delete(t.portals, name)
		}
		return nil
	default:
		return nil
	}
}

// SplitStatements splits a simple-protocol query string into its individual
// statements at top-level semicolons, respecting single-quoted strings (with
// ” escapes), double-quoted identifiers, dollar-quoted strings, line
// comments and nested block comments. Empty statements are dropped, so
// "SELECT 1;;" yields one statement, like the backend's own parser.
func SplitStatements(sql string) []string {
	var out []string
	start := 0
	i := 0
	n := len(sql)
	flush := func(end int) {
		if s := strings.TrimSpace(sql[start:end]); s != "" {
			out = append(out, s)
		}
	}
	for i < n {
		c := sql[i]
		switch {
		case c == ';':
			flush(i)
			i++
			start = i
		case c == '\'':
			// Single-quoted string; '' is an escaped quote.
			i++
			for i < n {
				if sql[i] == '\'' {
					if i+1 < n && sql[i+1] == '\'' {
						i += 2
						continue
					}
					i++
					break
				}
				i++
			}
		case c == '"':
			// Double-quoted identifier; "" is an escaped quote.
			i++
			for i < n {
				if sql[i] == '"' {
					if i+1 < n && sql[i+1] == '"' {
						i += 2
						continue
					}
					i++
					break
				}
				i++
			}
		case c == '$':
			// Possible dollar-quote opener: $tag$ ... $tag$.
			if end, ok := skipDollarQuote(sql, i); ok {
				i = end
			} else {
				i++
			}
		case c == '-' && i+1 < n && sql[i+1] == '-':
			// Line comment.
			for i < n && sql[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && sql[i+1] == '*':
			// Block comment, nested per the SQL standard.
			depth := 1
			i += 2
			for i < n && depth > 0 {
				if i+1 < n && sql[i] == '/' && sql[i+1] == '*' {
					depth++
					i += 2
				} else if i+1 < n && sql[i] == '*' && sql[i+1] == '/' {
					depth--
					i += 2
				} else {
					i++
				}
			}
		default:
			i++
		}
	}
	flush(n)
	return out
}

// skipDollarQuote scans a dollar-quoted string starting at i (which must
// point at '$'). It returns the index just past the closing tag and true, or
// (0, false) if i does not open a dollar quote. An unterminated dollar quote
// consumes the rest of the string, matching the backend's lexer.
func skipDollarQuote(sql string, i int) (int, bool) {
	j := i + 1
	for j < len(sql) && (isTagChar(sql[j])) {
		j++
	}
	if j >= len(sql) || sql[j] != '$' {
		return 0, false
	}
	tag := sql[i : j+1] // "$tag$" including both dollars
	closing := strings.Index(sql[j+1:], tag)
	if closing < 0 {
		return len(sql), true
	}
	return j + 1 + closing + len(tag), true
}

// isTagChar reports whether c may appear in a dollar-quote tag (letters,
// digits and underscores; the backend also allows some unicode, which we
// don't need for capture fidelity — a miss just means no split inside an
// exotic literal).
func isTagChar(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}
