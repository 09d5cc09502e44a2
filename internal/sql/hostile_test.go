package sql_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sql"
	"repro/internal/storage"
)

// wrap returns opening repeated n times, then core, then closing repeated n
// times.
func wrap(opening string, n int, core, closing string) string {
	return strings.Repeat(opening, n) + core + strings.Repeat(closing, n)
}

// hostileShapes are statements built to make a recursive-descent front end
// recurse, loop or copy without bound. The first group is what the issue
// reproduced against the parent commit; the 1 MiB sizes are what fits under
// the HTTP body limit. accepted says whether the statement is inside the
// nesting bound and must build its record.
var hostileShapes = []struct {
	name     string
	text     string
	accepted bool
}{
	// Recursive productions, each far past the bound.
	{"parens 1MiB", "SELECT " + wrap("(", 500_000, "1", ")") + " FROM t", false},
	{"parens 200kB", "SELECT " + wrap("(", 100_000, "1", ")") + " FROM t", false},
	{"not chain", "SELECT * FROM t WHERE " + strings.Repeat("NOT ", 250_000) + "a", false},
	{"minus chain", "SELECT " + strings.Repeat("- ", 500_000) + "a", false},
	{"plus chain", "SELECT " + strings.Repeat("+ ", 500_000) + "a", false},
	{"function calls", "SELECT " + wrap("f(", 300_000, "1", ")"), false},
	{"case", "SELECT " + wrap("CASE WHEN a THEN ", 50_000, "1", " END"), false},
	{"scalar subqueries", "SELECT " + wrap("(SELECT ", 100_000, "1", ")"), false},
	{"in subqueries", "SELECT a FROM t WHERE " + wrap("a IN (SELECT a FROM t WHERE ", 30_000, "a = 1", ")"), false},
	{"exists subqueries", "SELECT a FROM t WHERE " + wrap("EXISTS (SELECT a FROM t WHERE ", 30_000, "a = 1", ")"), false},
	{"derived tables", wrap("SELECT * FROM (", 60_000, "SELECT 1", ") x"), false},
	{"compound", "SELECT 1" + strings.Repeat(" UNION SELECT 1", 60_000), false},
	{"insert select", "INSERT INTO t " + wrap("SELECT * FROM (", 60_000, "SELECT 1", ") x"), false},
	// Left-deep chains the parser builds in a loop, not by recursing.
	{"and chain 80kB", "SELECT * FROM t WHERE a=1" + strings.Repeat(" AND a=1", 9_999), false},
	{"and chain 1MiB", "SELECT * FROM t WHERE a=1" + strings.Repeat(" AND a=1", 130_000), false},
	{"or chain", "SELECT * FROM t WHERE a=1" + strings.Repeat(" OR a=1", 130_000), false},
	{"sum chain 1MB", "SELECT 1" + strings.Repeat("+1", 500_000), false},
	{"product chain", "SELECT 1" + strings.Repeat("*1", 500_000), false},
	{"join chain", "SELECT * FROM t" + strings.Repeat(" JOIN t", 140_000), false},
	// A chain under every link of a nested chain: neither count alone sees it.
	{"chains under parens", "SELECT " + wrap("(", 400, "1", strings.Repeat("+1", 400)+")"), false},

	// Inside the bound: accepted, and linear in their size.
	{"chain over a 1MB literal", "SELECT '" + strings.Repeat("x", 1_000_000) + "'" + strings.Repeat(" || 'y'", 900), true},
	{"parens at 900", "SELECT " + wrap("(", 900, "1", ")") + " FROM t", true},
	{"and chain at 900", "SELECT * FROM t WHERE a=1" + strings.Repeat(" AND a=1", 900), true},
	{"join chain at 900", "SELECT * FROM t" + strings.Repeat(" JOIN t ON t.a = t.a", 900), true},
	// Sub-queries nested 40 deep: the collector once visited each level once
	// per level above it, 2^40 visits here.
	{"in subqueries at 40", "SELECT a FROM t WHERE " + wrap("a IN (SELECT a FROM t WHERE ", 40, "a = 1", ")"), true},
	// Width is not depth and is not limited.
	{"wide select list", "SELECT a" + strings.Repeat(", a+1", 40_000) + " FROM t", true},
	{"wide in list", "SELECT a FROM t WHERE a IN (1" + strings.Repeat(", 1", 40_000) + ")", true},
	{"wide values", "INSERT INTO t VALUES (1)" + strings.Repeat(", (1)", 40_000), true},
}

// TestHostileStatementsAreBounded: every shape either builds its record or is
// refused as an ordinary parse error, quickly, without overflowing the stack
// (which no recover could catch: at the parent commit the first case ends the
// test binary). The ceiling is generous so a loaded CI box does not flake —
// the slowest case takes half a second, two under the race detector, nearly
// all of it tokenizing a megabyte — and what it rules out is the minutes the
// unbounded printer took.
func TestHostileStatementsAreBounded(t *testing.T) {
	const ceiling = 30 * time.Second
	for _, tc := range hostileShapes {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			stmt, err := sql.Parse(tc.text)
			if tc.accepted {
				if err != nil {
					t.Fatalf("Parse refused a statement inside the bound: %v", err)
				}
				rec := storage.NewRecord(stmt, tc.text)
				if rec.Canonical == "" || rec.Template == "" {
					t.Fatalf("record not built: %+v", rec)
				}
				if again, err := sql.Parse(rec.Canonical); err != nil || again.SQL() != rec.Canonical {
					t.Fatalf("canonical form does not re-parse to itself: %v", err)
				}
			} else {
				var perr *sql.ParseError
				if !errors.As(err, &perr) || !strings.Contains(perr.Msg, "nested") {
					t.Fatalf("Parse = %v, want the nesting-limit parse error", err)
				}
				// What the capture path stores instead must be as cheap.
				if raw := storage.NewRawRecord(tc.text, err); raw.Template == "" || raw.Valid {
					t.Fatalf("raw record not built: valid=%v", raw.Valid)
				}
			}
			if d := time.Since(start); d > ceiling {
				t.Errorf("took %v (%d bytes), ceiling %v", d, len(tc.text), ceiling)
			}
		})
	}
}
