package sql_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/workload"
)

// oracleRecord builds the record of text the way the serving tree did when
// every stored field was derived by a helper that parsed the text again:
// storage.NewRecordFromSQL and storage.NewRawRecord of the parent commit,
// over the text-in helpers that now live in oracle_test.go.
func oracleRecord(text string) *storage.QueryRecord {
	canonical, err := sql.Canonical(text)
	if err != nil {
		return &storage.QueryRecord{
			QueryShape: &storage.QueryShape{
				Text:        text,
				Canonical:   strings.ToUpper(strings.Join(strings.Fields(text), " ")),
				Template:    sql.TemplateText(text),
				Fingerprint: sql.Fingerprint(text),
				ExactHash:   sql.ExactFingerprint(text),
				Features:    []string{storage.FeatureParseError},
			},
			InvalidReason: "parse error: " + err.Error(),
		}
	}
	rec := &storage.QueryRecord{
		QueryShape: &storage.QueryShape{
			Text:        text,
			Canonical:   canonical,
			Template:    sql.TemplateText(text),
			Fingerprint: sql.Fingerprint(text),
			ExactHash:   sql.ExactFingerprint(text),
		},
		Valid: true,
	}
	if _, isSelect := sql.ParseSelect(text); isSelect != nil {
		return rec
	}
	a, _ := sql.AnalyzeQuery(text)
	rec.Tables = append([]string(nil), a.Tables...)
	for _, c := range a.Columns {
		rec.Attributes = append(rec.Attributes, storage.AttributeRow{Attr: c.Column, Rel: c.Table, Clause: c.Clause})
	}
	for _, p := range a.Predicates {
		rec.Predicates = append(rec.Predicates, storage.PredicateRow{
			Attr: p.Column, Rel: p.Table, Op: p.Op, Const: p.Value,
			IsJoin: p.IsJoin, RightRel: p.RightTab, RightAttr: p.RightCol,
		})
	}
	rec.Aggregates = append([]string(nil), a.Aggregates...)
	rec.GroupBy = append([]string(nil), a.GroupByColumns...)
	rec.Features = a.FeatureSet()
	return rec
}

// frontEndRecord is the serving path: one sql.Parse, then storage.NewRecord on
// the statement or storage.NewRawRecord on the refusal.
func frontEndRecord(text string) (*storage.QueryRecord, sql.Statement) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return storage.NewRawRecord(text, err), nil
	}
	return storage.NewRecord(stmt, text), stmt
}

// generatedStatements is what the repository benchmark submits: the workload
// generator's exploratory statements for both groups and the four templated
// point lookups of the capture workload.
func generatedStatements(n int) []string {
	src := workload.NewQuerySource(7)
	r := rand.New(rand.NewSource(7))
	var out []string
	for i := 0; i < n; i++ {
		out = append(out,
			src.Query("limnology"),
			src.Query("astro"),
			fmt.Sprintf("SELECT name, magnitude FROM Stars WHERE star_id = %d", 1+r.Intn(500)),
			fmt.Sprintf("SELECT lake, temp FROM WaterTemp WHERE id = %d", 1+r.Intn(500)),
			fmt.Sprintf("SELECT flux, band FROM Observations WHERE obs_id = %d", 1+r.Intn(500)),
			fmt.Sprintf("SELECT kind, battery FROM Sensors WHERE sensor_id = %d", 1+r.Intn(50)),
		)
	}
	return out
}

// otherStatements covers what the generator does not: every statement kind,
// the printer's corner cases, and text that does not parse — the statements
// the capture proxy's tests see refused, and plain breakage.
var otherStatements = []string{
	"INSERT INTO WaterTemp (id, lake, temp) VALUES (1, 'Lake Union', 12.5), (2, 'Green Lake', -3)",
	"INSERT INTO Archive SELECT * FROM WaterTemp WHERE temp < 4",
	"UPDATE WaterTemp SET temp = temp + 1, lake = 'x' WHERE id = 3",
	"DELETE FROM WaterTemp WHERE id IN (1, 2, 3)",
	"DELETE FROM WaterTemp",
	"CREATE TABLE IF NOT EXISTS t (id INT PRIMARY KEY, name VARCHAR(20) NOT NULL, d DOUBLE UNIQUE)",
	"DROP TABLE IF EXISTS t",
	"ALTER TABLE t ADD COLUMN c BIGINT",
	"ALTER TABLE t DROP COLUMN c",
	"ALTER TABLE t RENAME COLUMN a TO b",
	"ALTER TABLE t RENAME TO u",
	"select   a from t where a=1 -- trailing comment",
	"SELECT a /* inline */ FROM t;",
	"SELECT DISTINCT lake FROM WaterTemp w LEFT JOIN Lakes l ON w.lake = l.name JOIN c USING (x, y) ORDER BY lake DESC LIMIT 10 OFFSET 5",
	"SELECT * FROM (SELECT lake, AVG(temp) AS avg_temp FROM WaterTemp GROUP BY lake HAVING AVG(temp) > 10) sub WHERE avg_temp BETWEEN 1 AND 20",
	"SELECT city FROM CityLocations WHERE city IN (SELECT city FROM Cities WHERE state = 'WA') AND NOT EXISTS (SELECT 1 FROM Lakes WHERE Lakes.city = CityLocations.city)",
	"SELECT CASE temp WHEN 1 THEN 'a' WHEN 2 THEN 'b' ELSE 'c' END, COUNT(*), COUNT(DISTINCT lake), t.* FROM t",
	"SELECT a FROM t UNION ALL SELECT a FROM u EXCEPT SELECT a FROM v",
	"SELECT -a, - -a, -(-1), -(a + b), NOT (a = b), NOT a, a - (b - c), a / (b * c), (a = b) = c, (a IS NULL) = TRUE FROM t",
	"SELECT a || 'x' || (b || 'y'), a AND (b AND c), a OR (b OR c), (a OR b) AND c FROM t",
	"SELECT a FROM t WHERE a NOT LIKE 'x%' AND b IS NOT NULL AND c NOT BETWEEN -1 AND +1 AND d NOT IN ($1, ?)",
	`SELECT "select", "my col" AS "from", date, t."key" FROM "order" AS date, t "text" WHERE "a""b" = 'it''s'`,
	"SELECT date(ts), \"weird f\"(1), text.* FROM t",
	"SELECT 1e5, 1., .5, 1e+, 00 FROM t",
	// Refused.
	"VACUUM ANALYZE WaterTemp",
	"SET search_path TO public",
	"BEGIN",
	"SELECT * FROM WaterTemp WHERE temp < 18 AND",
	"SELECT FROM WaterSalinity, WaterTemp WHERE",
	"SELECT a FROM t; SELECT b FROM u",
	"SELECT 'unterminated",
	"SELECT a FROM t WHERE a = \x00",
	"",
	"   ;;  ",
}

// partialStatements are partially written queries as a user types them: the
// shapes sql.PartialNames has rules for, and its corners.
var partialStatements = []string{
	"SELECT FROM WaterSalinity, WaterTemp",
	"SELECT temp FROM watertemp w WHERE w.",
	`SELECT "it's", t."x""y" FROM "My Table" t WHERE`,
	"SELECT t.* FROM t JOIN u ON t.a = u.a AND b = c GROUP BY t.d HAVING",
	"lake SELECT temp FROM WaterTemp ORDER BY",
	"SELECT a.b.c.d FROM . x . y",
	"FROM FROM a b c , d",
	"SELECT 'unterminated FROM t",
}

// checkPartialNames: sql.PartialNames returns, and every table and attribute
// it finds is the text of an identifier token of the input.
func checkPartialNames(t *testing.T, text string) {
	t.Helper()
	tables, attrs := sql.PartialNames(text)
	idents := map[string]bool{}
	if toks, err := sql.Tokenize(text); err == nil {
		for _, tok := range toks {
			if tok.Kind == sql.TokenIdent || tok.Kind == sql.TokenQuotedIdent {
				idents[tok.Text] = true
			}
		}
	}
	for _, name := range append(tables, attrs...) {
		if !idents[name] {
			t.Fatalf("PartialNames(%q) returned %q, not an identifier of the text", text, name)
		}
	}
}

// TestPartialNames pins the reader's rules on the seed shapes.
func TestPartialNames(t *testing.T) {
	for _, tc := range []struct {
		text          string
		tables, attrs []string
	}{
		{"SELECT FROM WaterSalinity, WaterTemp", []string{"WaterSalinity", "WaterTemp"}, nil},
		{"SELECT temp FROM watertemp w WHERE w.", []string{"watertemp"}, []string{"temp", "w"}},
		{`SELECT "it's", t."x""y" FROM "My Table" t WHERE`, []string{"My Table"}, []string{"it's", `x"y`}},
		// ON stays in the FROM clause: its unqualified names read as tables.
		{"SELECT t.* FROM t JOIN u ON t.a = u.a AND b = c GROUP BY t.d HAVING", []string{"t", "u", "b", "c"}, []string{"t", "a", "d"}},
		{"lake SELECT temp FROM WaterTemp ORDER BY", []string{"WaterTemp"}, []string{"temp"}},
		{"SELECT 'unterminated FROM t", nil, nil},
	} {
		tables, attrs := sql.PartialNames(tc.text)
		if !reflect.DeepEqual(tables, tc.tables) || !reflect.DeepEqual(attrs, tc.attrs) {
			t.Errorf("PartialNames(%q) = %q, %q; want %q, %q", tc.text, tables, attrs, tc.tables, tc.attrs)
		}
		checkPartialNames(t, tc.text)
	}
}

// TestNewRecordMatchesTextOracle: every stored field of the record the
// serving path builds from one parse equals what the text-in helpers derive
// by parsing the text once per field.
func TestNewRecordMatchesTextOracle(t *testing.T) {
	for _, text := range append(generatedStatements(150), otherStatements...) {
		got, _ := frontEndRecord(text)
		if want := oracleRecord(text); !reflect.DeepEqual(got, want) {
			t.Errorf("%q\n got: %+v\nwant: %+v", text, got, want)
		}
		viaText, err := storage.NewRecordFromSQL(text)
		if got.Valid != (err == nil) || (err == nil && !reflect.DeepEqual(viaText, got)) {
			t.Errorf("%q: NewRecordFromSQL = %+v, %v; NewRecord = %+v", text, viaText, err, got)
		}
	}
}

// FuzzParse feeds arbitrary bytes to the one parse every request starts with.
// It must return — a statement past the nesting bound is a parse error, never
// a stack overflow — and on a statement it accepts: the canonical form parses
// back and prints the same string (so it is idempotent), and the record the
// serving path builds carries the canonical form, template and fingerprints
// of the text-in oracle, which also pins the printer's mask mode to the
// clone-and-mask template it replaced.
//
// One re-parse failure is tolerated: the nesting limit. A canonical form can
// count deeper than its source — NOT a = b prints as NOT (a = b), and
// (a AND b) AND (c AND d) flattens into one longer chain — so a source just
// inside the bound can print a form just outside it. Nothing re-parses a
// stored canonical form; what matters is that equal statements print equal.
//
// The same untrusted text reaches the partial-query reader (partial-query
// search and the assistant's fallback for text that does not parse): it must
// return, and every name it returns is an identifier token of the text.
func FuzzParse(f *testing.F) {
	for _, text := range append(append(generatedStatements(5), otherStatements...), partialStatements...) {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkPartialNames(t, text)
		got, stmt := frontEndRecord(text)
		want := oracleRecord(text)
		if got.Canonical != want.Canonical || got.Template != want.Template ||
			got.Fingerprint != want.Fingerprint || got.ExactHash != want.ExactHash || got.Valid != want.Valid {
			t.Fatalf("record differs from the text-in oracle\n got: %q %q %x %x\nwant: %q %q %x %x",
				got.Canonical, got.Template, got.Fingerprint, got.ExactHash,
				want.Canonical, want.Template, want.Fingerprint, want.ExactHash)
		}
		if stmt == nil {
			return
		}
		again, err := sql.Parse(got.Canonical)
		if err != nil {
			var perr *sql.ParseError
			if errors.As(err, &perr) && strings.Contains(perr.Msg, "nested") {
				return
			}
			t.Fatalf("canonical form %q of %q does not parse: %v", got.Canonical, text, err)
		}
		if reprinted := again.SQL(); reprinted != got.Canonical {
			t.Fatalf("print -> parse -> print is not a fixpoint for %q\n first: %q\nsecond: %q", text, got.Canonical, reprinted)
		}
	})
}
