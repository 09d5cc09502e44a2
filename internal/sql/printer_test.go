package sql

import (
	"testing"
)

// TestRoundTrip checks that parse → print → parse → print is a fixpoint:
// printing a parsed statement and re-parsing it yields the same text.
func TestRoundTrip(t *testing.T) {
	cases := []string{
		"SELECT a, b FROM t WHERE a = 1",
		"SELECT * FROM WaterSalinity S, WaterTemp T WHERE S.loc_x = T.loc_x AND T.temp < 18",
		"SELECT DISTINCT lake FROM WaterTemp ORDER BY lake",
		"SELECT lake, AVG(temp) AS avg_temp FROM WaterTemp GROUP BY lake HAVING AVG(temp) > 10 ORDER BY avg_temp DESC LIMIT 10",
		"SELECT city FROM CityLocations WHERE city IN (SELECT city FROM Cities WHERE state = 'WA')",
		"SELECT * FROM a LEFT JOIN b ON a.x = b.x JOIN c ON b.y = c.y",
		"SELECT * FROM (SELECT lake FROM WaterTemp) sub WHERE lake LIKE 'Lake%'",
		"SELECT CASE WHEN temp > 20 THEN 'warm' ELSE 'cold' END AS label FROM WaterTemp",
		"SELECT a FROM t UNION SELECT a FROM u",
		"SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 10",
		"SELECT * FROM t WHERE a IS NOT NULL AND b NOT IN (1, 2)",
		"SELECT -salinity + 3.5 * depth FROM WaterSalinity",
		"INSERT INTO t (a, b) VALUES (1, 'x')",
		"UPDATE t SET a = a + 1 WHERE id = 3",
		"DELETE FROM t WHERE id = 3",
		"CREATE TABLE t (id INT PRIMARY KEY, name TEXT NOT NULL)",
		"DROP TABLE IF EXISTS t",
		"ALTER TABLE t RENAME COLUMN a TO b",
	}
	for _, q := range cases {
		stmt1, err := Parse(q)
		if err != nil {
			t.Errorf("Parse(%q): %v", q, err)
			continue
		}
		text1 := stmt1.SQL()
		stmt2, err := Parse(text1)
		if err != nil {
			t.Errorf("re-Parse(%q): %v", text1, err)
			continue
		}
		text2 := stmt2.SQL()
		if text1 != text2 {
			t.Errorf("round trip not stable:\n  first:  %s\n  second: %s", text1, text2)
		}
	}
}

func TestPrinterNormalizesCase(t *testing.T) {
	canon, err := Canonical("select   a from t where a=1")
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	want := "SELECT a FROM t WHERE a = 1"
	if canon != want {
		t.Errorf("Canonical = %q, want %q", canon, want)
	}
}

func TestPrinterParenthesizesPrecedence(t *testing.T) {
	// (a OR b) AND c must keep its parentheses when printed.
	sel := mustParseSelect(t, "SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3")
	out := sel.SQL()
	reparsed := mustParseSelect(t, out)
	and, ok := reparsed.Where.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("reparsed where = %#v, want AND at top", reparsed.Where)
	}
	if or, ok := and.Left.(*BinaryExpr); !ok || or.Op != "OR" {
		t.Errorf("left of AND = %#v, want OR", and.Left)
	}
}

func TestPrinterStringEscaping(t *testing.T) {
	sel := mustParseSelect(t, "SELECT * FROM t WHERE name = 'O''Brien'")
	out := sel.SQL()
	reparsed := mustParseSelect(t, out)
	cmp := reparsed.Where.(*BinaryExpr)
	lit := cmp.Right.(*Literal)
	if lit.Text != "O'Brien" {
		t.Errorf("literal = %q, want O'Brien", lit.Text)
	}
}

func TestJoinTypeString(t *testing.T) {
	cases := map[JoinType]string{
		JoinInner: "JOIN",
		JoinLeft:  "LEFT JOIN",
		JoinRight: "RIGHT JOIN",
		JoinFull:  "FULL JOIN",
		JoinCross: "CROSS JOIN",
	}
	for jt, want := range cases {
		if jt.String() != want {
			t.Errorf("JoinType(%d).String() = %q, want %q", jt, jt.String(), want)
		}
	}
}

func TestSelectItemSQL(t *testing.T) {
	cases := []struct {
		item SelectItem
		want string
	}{
		{SelectItem{Star: true}, "*"},
		{SelectItem{TableStar: "t"}, "t.*"},
		{SelectItem{Expr: &ColumnRef{Name: "a"}, Alias: "x"}, "a AS x"},
	}
	for _, c := range cases {
		stmt := &SelectStmt{Columns: []SelectItem{c.item}}
		if got, want := stmt.SQL(), "SELECT "+c.want; got != want {
			t.Errorf("SQL() = %q, want %q", got, want)
		}
	}
}
