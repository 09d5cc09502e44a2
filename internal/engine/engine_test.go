package engine

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// newLakesEngine builds the paper's running-example schema with a small,
// deterministic data set.
func newLakesEngine(t testing.TB) *Engine {
	t.Helper()
	e := New()
	stmts := []string{
		"CREATE TABLE WaterSalinity (id INT PRIMARY KEY, lake TEXT, loc_x INT, loc_y INT, salinity FLOAT, depth FLOAT)",
		"CREATE TABLE WaterTemp (id INT PRIMARY KEY, lake TEXT, loc_x INT, loc_y INT, temp FLOAT)",
		"CREATE TABLE CityLocations (city TEXT, state TEXT, loc_x INT, loc_y INT, pop INT)",
		"INSERT INTO WaterSalinity VALUES (1, 'Lake Washington', 10, 20, 2.5, 30), (2, 'Lake Union', 11, 21, 3.1, 15), (3, 'Lake Sammamish', 12, 22, 1.8, 25)",
		"INSERT INTO WaterTemp VALUES (1, 'Lake Washington', 10, 20, 14.5), (2, 'Lake Union', 11, 21, 19.0), (3, 'Lake Sammamish', 12, 22, 17.2), (4, 'Lake Washington', 10, 20, 21.0)",
		"INSERT INTO CityLocations VALUES ('Seattle', 'WA', 10, 20, 750000), ('Bellevue', 'WA', 12, 22, 150000), ('Detroit', 'MI', 90, 95, 630000)",
	}
	for _, s := range stmts {
		if _, err := e.Execute(s); err != nil {
			t.Fatalf("setup %q: %v", s, err)
		}
	}
	return e
}

func query(t testing.TB, e *Engine, q string) *Result {
	t.Helper()
	res, err := e.Execute(q)
	if err != nil {
		t.Fatalf("Execute(%q): %v", q, err)
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT lake, temp FROM WaterTemp WHERE temp < 18")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}
	if res.Columns[0] != "lake" || res.Columns[1] != "temp" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT * FROM CityLocations")
	if len(res.Rows) != 3 || len(res.Columns) != 5 {
		t.Errorf("rows = %d cols = %d", len(res.Rows), len(res.Columns))
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	e := New()
	res := query(t, e, "SELECT 1 + 2, 'hello'")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0][0].Int != 3 || res.Rows[0][1].Str != "hello" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestWherePredicates(t *testing.T) {
	e := newLakesEngine(t)
	cases := []struct {
		q    string
		want int
	}{
		{"SELECT * FROM WaterTemp WHERE temp < 18", 2},
		{"SELECT * FROM WaterTemp WHERE temp >= 18", 2},
		{"SELECT * FROM WaterTemp WHERE temp BETWEEN 15 AND 20", 2},
		{"SELECT * FROM WaterTemp WHERE lake LIKE 'Lake W%'", 2},
		{"SELECT * FROM WaterTemp WHERE lake LIKE 'lAKE w%'", 2},
		// A column-valued pattern, mixed case, differs from row to row.
		{"SELECT * FROM WaterTemp WHERE 'LAKE WASHINGTON' LIKE lake", 2},
		{"SELECT * FROM WaterTemp WHERE 'lake union' LIKE lake", 1},
		{"SELECT * FROM WaterTemp WHERE lake IN ('Lake Union', 'Lake Sammamish')", 2},
		{"SELECT * FROM WaterTemp WHERE lake NOT IN ('Lake Union')", 3},
		{"SELECT * FROM WaterTemp WHERE temp < 18 AND lake = 'Lake Washington'", 1},
		{"SELECT * FROM WaterTemp WHERE temp < 15 OR temp > 20", 2},
		{"SELECT * FROM WaterTemp WHERE NOT temp < 18", 2},
		{"SELECT * FROM CityLocations WHERE state = 'WA' AND pop > 200000", 1},
		{"SELECT * FROM CityLocations WHERE pop IS NULL", 0},
		{"SELECT * FROM CityLocations WHERE pop IS NOT NULL", 3},
	}
	for _, c := range cases {
		res := query(t, e, c.q)
		if len(res.Rows) != c.want {
			t.Errorf("%q rows = %d, want %d", c.q, len(res.Rows), c.want)
		}
	}
}

func TestImplicitJoinWithWhere(t *testing.T) {
	e := newLakesEngine(t)
	// The paper's Figure 3 query (without the IN clause).
	res := query(t, e, `SELECT * FROM WaterSalinity S, WaterTemp T
		WHERE T.temp < 18 AND S.loc_x = T.loc_x AND S.loc_y = T.loc_y`)
	// WaterTemp rows with temp<18: id 1 (Lake Washington) and id 3 (Lake
	// Sammamish); each joins to one salinity row at the same location.
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(res.Rows))
	}
	if len(res.Columns) != 11 {
		t.Errorf("columns = %d, want 11", len(res.Columns))
	}
}

func TestExplicitJoins(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT S.lake, T.temp FROM WaterSalinity S JOIN WaterTemp T ON S.loc_x = T.loc_x")
	if len(res.Rows) != 4 {
		t.Errorf("inner join rows = %d, want 4", len(res.Rows))
	}

	// LEFT JOIN keeps unmatched left rows with NULL padding.
	query(t, e, "INSERT INTO WaterSalinity VALUES (4, 'Lake Tahoe', 99, 99, 0.1, 500)")
	res = query(t, e, "SELECT S.lake, T.temp FROM WaterSalinity S LEFT JOIN WaterTemp T ON S.loc_x = T.loc_x")
	if len(res.Rows) != 5 {
		t.Fatalf("left join rows = %d, want 5", len(res.Rows))
	}
	foundNull := false
	for _, r := range res.Rows {
		if r[0].Str == "Lake Tahoe" && r[1].IsNull() {
			foundNull = true
		}
	}
	if !foundNull {
		t.Errorf("left join should keep Lake Tahoe with NULL temp: %v", res.Rows)
	}

	// RIGHT JOIN mirrors.
	res = query(t, e, "SELECT T.lake, S.salinity FROM WaterSalinity S RIGHT JOIN WaterTemp T ON S.loc_x = T.loc_x")
	if len(res.Rows) != 4 {
		t.Errorf("right join rows = %d, want 4", len(res.Rows))
	}

	// CROSS JOIN.
	res = query(t, e, "SELECT * FROM CityLocations CROSS JOIN WaterTemp")
	if len(res.Rows) != 12 {
		t.Errorf("cross join rows = %d, want 12", len(res.Rows))
	}
}

func TestJoinUsing(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT * FROM WaterSalinity JOIN WaterTemp USING (loc_x, loc_y)")
	if len(res.Rows) != 4 {
		t.Errorf("rows = %d, want 4", len(res.Rows))
	}
}

// TestJoinUsingChained: a USING column of a chained join is resolved by name
// in the whole left side, not on its first table, so the chain equals the
// same join spelled with ON; a name two left tables share is ambiguous.
func TestJoinUsingChained(t *testing.T) {
	e := New()
	for _, s := range []string{
		"CREATE TABLE a (x INT, y INT)",
		"CREATE TABLE b (y INT, z INT)",
		"CREATE TABLE c (z INT, w INT)",
		"INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)",
		"INSERT INTO b VALUES (10, 100), (20, 200), (20, 201)",
		"INSERT INTO c VALUES (100, 7), (201, 8), (999, 9)",
	} {
		query(t, e, s)
	}
	got := query(t, e, "SELECT * FROM a JOIN b USING (y) JOIN c USING (z)")
	want := query(t, e, "SELECT * FROM a JOIN b ON a.y = b.y JOIN c ON b.z = c.z")
	if len(got.Rows) != 2 || !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("USING chain = %v %v, ON chain = %v %v", got.Columns, got.Rows, want.Columns, want.Rows)
	}
	if _, err := e.Execute("SELECT * FROM a JOIN b USING (y) JOIN a AS a2 USING (y)"); !errors.Is(err, ErrAmbiguousColumn) {
		t.Fatalf("USING a column two left tables have: err = %v, want ErrAmbiguousColumn", err)
	}
}

// TestJoinUsingZeroColumnSide: a USING join against a relation whose every
// column was dropped reports the USING column as not found, on either side
// and through a derived table, instead of indexing a column it lacks.
func TestJoinUsingZeroColumnSide(t *testing.T) {
	e := New()
	for _, s := range []string{
		"CREATE TABLE a (x INT)",
		"CREATE TABLE z (y INT)",
		"ALTER TABLE z DROP COLUMN y",
	} {
		query(t, e, s)
	}
	for _, q := range []string{
		"SELECT * FROM a JOIN z USING (x)",
		"SELECT * FROM z JOIN a USING (x)",
		"SELECT * FROM a JOIN (SELECT * FROM z) d USING (x)",
		"SELECT * FROM (SELECT * FROM z) d JOIN a USING (x)",
	} {
		if _, err := e.Execute(q); !errors.Is(err, ErrColumnNotFound) {
			t.Errorf("%s: err = %v, want ErrColumnNotFound", q, err)
		}
	}
}

func TestAggregates(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT COUNT(*), AVG(temp), MIN(temp), MAX(temp), SUM(temp) FROM WaterTemp")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if row[0].Int != 4 {
		t.Errorf("COUNT(*) = %v, want 4", row[0])
	}
	if row[2].Float != 14.5 || row[3].Float != 21.0 {
		t.Errorf("MIN/MAX = %v/%v", row[2], row[3])
	}
	wantAvg := (14.5 + 19.0 + 17.2 + 21.0) / 4
	if diff := row[1].Float - wantAvg; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("AVG = %v, want %v", row[1].Float, wantAvg)
	}
}

func TestGroupByHaving(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT lake, COUNT(*) AS n, AVG(temp) AS avg_temp FROM WaterTemp GROUP BY lake HAVING COUNT(*) > 1")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (only Lake Washington has 2 readings)", len(res.Rows))
	}
	if res.Rows[0][0].Str != "Lake Washington" || res.Rows[0][1].Int != 2 {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestGroupByOrderByAlias(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT lake, AVG(temp) AS avg_temp FROM WaterTemp GROUP BY lake ORDER BY avg_temp DESC")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if res.Rows[0][0].Str != "Lake Union" {
		t.Errorf("first row = %v, want Lake Union (highest avg temp)", res.Rows[0])
	}
	prev := res.Rows[0][1].Float
	for _, r := range res.Rows[1:] {
		if r[1].Float > prev {
			t.Errorf("rows not sorted descending: %v", res.Rows)
		}
		prev = r[1].Float
	}
}

func TestCountDistinct(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT COUNT(DISTINCT lake) FROM WaterTemp")
	if res.Rows[0][0].Int != 3 {
		t.Errorf("COUNT(DISTINCT lake) = %v, want 3", res.Rows[0][0])
	}
}

func TestDistinct(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT DISTINCT lake FROM WaterTemp")
	if len(res.Rows) != 3 {
		t.Errorf("distinct rows = %d, want 3", len(res.Rows))
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT lake, temp FROM WaterTemp ORDER BY temp LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0][1].Float != 14.5 {
		t.Errorf("first row = %v, want lowest temp", res.Rows[0])
	}
	res = query(t, e, "SELECT lake, temp FROM WaterTemp ORDER BY temp LIMIT 2 OFFSET 2")
	if len(res.Rows) != 2 || res.Rows[0][1].Float != 19.0 {
		t.Errorf("offset rows = %v", res.Rows)
	}
	res = query(t, e, "SELECT lake FROM WaterTemp ORDER BY temp LIMIT 100 OFFSET 100")
	if len(res.Rows) != 0 {
		t.Errorf("out-of-range offset should return no rows")
	}
}

func TestOrderByUnprojectedColumn(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT lake FROM WaterTemp ORDER BY temp DESC")
	if res.Rows[0][0].Str != "Lake Washington" {
		t.Errorf("first = %v, want Lake Washington (21.0)", res.Rows[0])
	}
}

func TestSubqueryIn(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, `SELECT city FROM CityLocations WHERE loc_x IN (SELECT loc_x FROM WaterTemp WHERE temp < 18)`)
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2 (Seattle, Bellevue)", len(res.Rows))
	}
}

func TestSubqueryExistsCorrelated(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, `SELECT city FROM CityLocations L WHERE EXISTS (SELECT 1 FROM WaterTemp T WHERE T.loc_x = L.loc_x AND T.temp < 18)`)
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}

	// What stops the climb to the outer scope is a name that is ambiguous in
	// an inner one, not a name that merely contains the word.
	query(t, e, "CREATE TABLE o (id INT, ambiguous_flag INT)")
	query(t, e, "CREATE TABLE i (oid INT)")
	query(t, e, "INSERT INTO o VALUES (1, 10), (2, 20)")
	query(t, e, "INSERT INTO i VALUES (10)")
	res = query(t, e, "SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.oid = ambiguous_flag)")
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 1 {
		t.Errorf("correlated reference to o.ambiguous_flag: rows = %v, want just id 1", res.Rows)
	}
	_, err := e.Execute("SELECT city FROM CityLocations WHERE EXISTS (SELECT 1 FROM WaterTemp, WaterSalinity WHERE loc_x = pop)")
	if !errors.Is(err, ErrAmbiguousColumn) {
		t.Errorf("loc_x is ambiguous in the sub-query although the outer scope has one: err = %v", err)
	}
}

func TestScalarSubquery(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT lake FROM WaterTemp WHERE temp > (SELECT AVG(temp) FROM WaterTemp)")
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2 (19.0 and 21.0 above avg 17.925)", len(res.Rows))
	}
}

func TestDerivedTable(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT lake FROM (SELECT lake, AVG(temp) AS a FROM WaterTemp GROUP BY lake) sub WHERE a > 17.5")
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}
}

func TestUnionExceptIntersect(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT lake FROM WaterTemp UNION SELECT lake FROM WaterSalinity")
	if len(res.Rows) != 3 {
		t.Errorf("union rows = %d, want 3", len(res.Rows))
	}
	res = query(t, e, "SELECT lake FROM WaterTemp UNION ALL SELECT lake FROM WaterSalinity")
	if len(res.Rows) != 7 {
		t.Errorf("union all rows = %d, want 7", len(res.Rows))
	}
	res = query(t, e, "SELECT lake FROM WaterSalinity EXCEPT SELECT lake FROM WaterTemp WHERE temp > 18")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "Lake Sammamish" {
		t.Errorf("except rows = %v, want just Lake Sammamish", res.Rows)
	}
	res = query(t, e, "SELECT lake FROM WaterSalinity INTERSECT SELECT lake FROM WaterTemp")
	if len(res.Rows) != 3 {
		t.Errorf("intersect rows = %d, want 3", len(res.Rows))
	}
}

func TestCaseExpression(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT lake, CASE WHEN temp >= 18 THEN 'warm' ELSE 'cold' END AS label FROM WaterTemp ORDER BY temp")
	if res.Rows[0][1].Str != "cold" || res.Rows[3][1].Str != "warm" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestScalarFunctions(t *testing.T) {
	e := New()
	res := query(t, e, "SELECT LOWER('ABC'), UPPER('abc'), LENGTH('hello'), ABS(-4), ROUND(3.567, 2), COALESCE(NULL, 7), SUBSTR('Seattle', 1, 3)")
	row := res.Rows[0]
	if row[0].Str != "abc" || row[1].Str != "ABC" {
		t.Errorf("LOWER/UPPER = %v/%v", row[0], row[1])
	}
	if row[2].Int != 5 || row[3].Int != 4 {
		t.Errorf("LENGTH/ABS = %v/%v", row[2], row[3])
	}
	if row[4].Float != 3.57 {
		t.Errorf("ROUND = %v", row[4])
	}
	if row[5].Int != 7 {
		t.Errorf("COALESCE = %v", row[5])
	}
	if row[6].Str != "Sea" {
		t.Errorf("SUBSTR = %v", row[6])
	}
}

func TestArithmetic(t *testing.T) {
	e := New()
	res := query(t, e, "SELECT 7 + 3, 7 - 3, 7 * 3, 7 / 2, 7 % 3, 7.0 / 2, 'a' || 'b'")
	row := res.Rows[0]
	if row[0].Int != 10 || row[1].Int != 4 || row[2].Int != 21 || row[3].Int != 3 || row[4].Int != 1 {
		t.Errorf("integer arithmetic = %v", row[:5])
	}
	if row[5].Float != 3.5 {
		t.Errorf("float division = %v", row[5])
	}
	if row[6].Str != "ab" {
		t.Errorf("concat = %v", row[6])
	}
}

func TestDivisionByZero(t *testing.T) {
	e := New()
	if _, err := e.Execute("SELECT 1 / 0"); err == nil {
		t.Error("expected division-by-zero error")
	}
}

func TestUpdateAndDelete(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "UPDATE WaterTemp SET temp = temp + 1 WHERE lake = 'Lake Union'")
	if res.RowsAffected != 1 {
		t.Fatalf("update affected = %d, want 1", res.RowsAffected)
	}
	check := query(t, e, "SELECT temp FROM WaterTemp WHERE lake = 'Lake Union'")
	if check.Rows[0][0].Float != 20.0 {
		t.Errorf("temp after update = %v, want 20", check.Rows[0][0])
	}

	res = query(t, e, "DELETE FROM WaterTemp WHERE temp >= 20")
	if res.RowsAffected != 2 {
		t.Fatalf("delete affected = %d, want 2", res.RowsAffected)
	}
	check = query(t, e, "SELECT COUNT(*) FROM WaterTemp")
	if check.Rows[0][0].Int != 2 {
		t.Errorf("remaining rows = %v, want 2", check.Rows[0][0])
	}
}

// TestFailedUpdateLeavesTableUntouched: an UPDATE that fails on a later row
// changes no row.
func TestFailedUpdateLeavesTableUntouched(t *testing.T) {
	e := newLakesEngine(t)
	before := query(t, e, "SELECT * FROM WaterTemp")
	if _, err := e.Execute("UPDATE WaterTemp SET temp = temp / (loc_x - 12)"); err == nil {
		t.Fatal("expected division by zero on the third row")
	}
	if after := query(t, e, "SELECT * FROM WaterTemp"); !reflect.DeepEqual(after.Rows, before.Rows) {
		t.Errorf("rows after a failed UPDATE:\n%v\nbefore:\n%v", after.Rows, before.Rows)
	}
}

// TestResultRowsDoNotAliasTableStorage: what a SELECT returns is the caller's
// to change; the table's published rows are not reachable from it.
func TestResultRowsDoNotAliasTableStorage(t *testing.T) {
	e := newLakesEngine(t)
	for _, q := range []string{
		"SELECT * FROM WaterTemp",
		"SELECT * FROM WaterTemp WHERE temp < 100",
		"SELECT T.* FROM WaterTemp T, WaterSalinity S WHERE T.loc_x = S.loc_x",
		"SELECT * FROM WaterTemp GROUP BY id",
	} {
		res := query(t, e, q)
		for _, row := range res.Rows {
			for i := range row {
				row[i] = NewText("scribbled")
			}
		}
	}
	res := query(t, e, "SELECT COUNT(*), SUM(temp) FROM WaterTemp WHERE lake LIKE 'Lake%'")
	if res.Rows[0][0].Int != 4 || res.Rows[0][1].Float != 14.5+19.0+17.2+21.0 {
		t.Errorf("table changed through a result: %v", res.Rows[0])
	}
}

func TestInsertSelect(t *testing.T) {
	e := newLakesEngine(t)
	query(t, e, "CREATE TABLE WarmReadings (id INT, lake TEXT, loc_x INT, loc_y INT, temp FLOAT)")
	res := query(t, e, "INSERT INTO WarmReadings SELECT * FROM WaterTemp WHERE temp >= 18")
	if res.RowsAffected != 2 {
		t.Fatalf("insert-select affected = %d, want 2", res.RowsAffected)
	}
}

func TestInsertColumnSubsetAndCoercion(t *testing.T) {
	e := New()
	query(t, e, "CREATE TABLE t (a INT, b FLOAT, c TEXT)")
	query(t, e, "INSERT INTO t (a, c) VALUES (1, 'x')")
	res := query(t, e, "SELECT a, b, c FROM t")
	if !res.Rows[0][1].IsNull() {
		t.Errorf("unspecified column should be NULL: %v", res.Rows[0])
	}
	// Integer literal coerced into FLOAT column.
	query(t, e, "INSERT INTO t VALUES (2, 5, 'y')")
	res = query(t, e, "SELECT b FROM t WHERE a = 2")
	if res.Rows[0][0].Type != TypeFloat || res.Rows[0][0].Float != 5 {
		t.Errorf("coerced value = %#v", res.Rows[0][0])
	}
}

func TestDDLAndSchemaChanges(t *testing.T) {
	e := newLakesEngine(t)
	v0 := e.Catalog().Version()
	query(t, e, "ALTER TABLE WaterTemp ADD COLUMN sensor TEXT")
	query(t, e, "ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature")
	query(t, e, "ALTER TABLE CityLocations DROP COLUMN pop")
	query(t, e, "DROP TABLE WaterSalinity")
	changes := e.Catalog().Changes(v0)
	if len(changes) != 4 {
		t.Fatalf("changes = %d, want 4", len(changes))
	}
	kinds := []SchemaChangeKind{ChangeAddColumn, ChangeRenameColumn, ChangeDropColumn, ChangeDropTable}
	for i, ch := range changes {
		if ch.Kind != kinds[i] {
			t.Errorf("change %d kind = %v, want %v", i, ch.Kind, kinds[i])
		}
	}
	// Old column name is gone.
	if _, err := e.Execute("SELECT temp FROM WaterTemp"); err == nil {
		t.Error("expected error selecting renamed column")
	}
	if _, err := e.Execute("SELECT temperature FROM WaterTemp"); err != nil {
		t.Errorf("renamed column should work: %v", err)
	}
}

func TestErrorCases(t *testing.T) {
	e := newLakesEngine(t)
	cases := []struct {
		q        string
		sentinel error
	}{
		{"SELECT * FROM NoSuchTable", ErrTableNotFound},
		{"SELECT nosuchcol FROM WaterTemp", ErrColumnNotFound},
		{"SELECT loc_x FROM WaterSalinity, WaterTemp", ErrAmbiguousColumn},
		{"INSERT INTO NoSuchTable VALUES (1)", ErrTableNotFound},
		{"UPDATE NoSuchTable SET a = 1", ErrTableNotFound},
		{"DELETE FROM NoSuchTable", ErrTableNotFound},
		{"ALTER TABLE WaterTemp DROP COLUMN nosuch", ErrColumnNotFound},
	}
	for _, c := range cases {
		_, err := e.Execute(c.q)
		if err == nil {
			t.Errorf("%q: expected error", c.q)
			continue
		}
		if c.sentinel != nil && !errors.Is(err, c.sentinel) {
			t.Errorf("%q: error %v is not %v", c.q, err, c.sentinel)
		}
	}
	if _, err := e.Execute("CREATE TABLE WaterTemp (id INT)"); !errors.Is(err, ErrTableExists) {
		t.Errorf("duplicate create error = %v", err)
	}
	if _, err := e.Execute("CREATE TABLE IF NOT EXISTS WaterTemp (id INT)"); err != nil {
		t.Errorf("IF NOT EXISTS should succeed: %v", err)
	}
}

func TestResultMetadata(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT * FROM WaterTemp")
	if res.Cardinality() != 4 {
		t.Errorf("cardinality = %d, want 4", res.Cardinality())
	}
	if res.Elapsed <= 0 {
		t.Errorf("elapsed should be positive")
	}
}

func TestStringOutput(t *testing.T) {
	e := newLakesEngine(t)
	res := query(t, e, "SELECT lake, temp FROM WaterTemp WHERE id = 1")
	strs := rowStrings(res.Rows[0])
	if strs[0] != "Lake Washington" || !strings.HasPrefix(strs[1], "14.5") {
		t.Errorf("strings = %v", strs)
	}
}

func TestNullSemantics(t *testing.T) {
	e := New()
	query(t, e, "CREATE TABLE n (a INT, b INT)")
	query(t, e, "INSERT INTO n VALUES (1, NULL), (2, 5)")
	// NULL comparisons are never true.
	res := query(t, e, "SELECT a FROM n WHERE b = 5")
	if len(res.Rows) != 1 {
		t.Errorf("rows = %d, want 1", len(res.Rows))
	}
	res = query(t, e, "SELECT a FROM n WHERE b <> 5")
	if len(res.Rows) != 0 {
		t.Errorf("NULL <> 5 should not match, got %d rows", len(res.Rows))
	}
	// Aggregates skip NULLs.
	res = query(t, e, "SELECT COUNT(b), SUM(b) FROM n")
	if res.Rows[0][0].Int != 1 || res.Rows[0][1].Int != 5 {
		t.Errorf("COUNT/SUM over NULLs = %v", res.Rows[0])
	}
}

func TestMustExecutePanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("MustExecute should panic on error")
		}
	}()
	e.MustExecute("SELECT * FROM missing")
}
