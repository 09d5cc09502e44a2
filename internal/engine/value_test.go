package engine

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestValueConstructorsAndString(t *testing.T) {
	ts := time.Date(2009, 1, 5, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(42), "42"},
		{NewFloat(3.5), "3.5"},
		{NewText("Lake Washington"), "Lake Washington"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
		{Null, "NULL"},
		{NewTimestamp(ts), "2009-01-05T12:00:00Z"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewText("a"), NewText("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{NewTimestamp(time.Unix(1, 0)), NewTimestamp(time.Unix(2, 0)), -1},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Errorf("Compare(%v, %v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// Incompatible types error.
	if _, err := NewText("x").Compare(NewInt(1)); err == nil {
		t.Error("comparing text with int should error")
	}
	// NULL comparisons are flagged.
	if _, err := Null.Compare(NewInt(1)); err == nil {
		t.Error("comparing NULL with a value should error")
	}
	if c, err := Null.Compare(Null); err != nil || c != 0 {
		t.Errorf("NULL vs NULL = %d, %v", c, err)
	}
}

func TestValueEqualAndKey(t *testing.T) {
	if !NewInt(2).Equal(NewFloat(2)) {
		t.Error("2 should equal 2.0")
	}
	if NewInt(2).Key() != NewFloat(2).Key() {
		t.Error("numeric keys should unify int and float")
	}
	if Null.Equal(Null) {
		t.Error("NULL never equals NULL in SQL semantics")
	}
	if NewText("a").Key() == NewInt(97).Key() {
		t.Error("text and int keys must not collide")
	}
}

func TestValueCoerce(t *testing.T) {
	cases := []struct {
		in     Value
		target Type
		want   Value
	}{
		{NewFloat(3.9), TypeInt, NewInt(3)},
		{NewText("42"), TypeInt, NewInt(42)},
		{NewBool(true), TypeInt, NewInt(1)},
		{NewInt(5), TypeFloat, NewFloat(5)},
		{NewText("2.5"), TypeFloat, NewFloat(2.5)},
		{NewInt(7), TypeText, NewText("7")},
		{NewInt(0), TypeBool, NewBool(false)},
		{NewText("true"), TypeBool, NewBool(true)},
	}
	for _, c := range cases {
		got, err := c.in.Coerce(c.target)
		if err != nil {
			t.Errorf("Coerce(%v, %v): %v", c.in, c.target, err)
			continue
		}
		if got.Type != c.want.Type || got.String() != c.want.String() {
			t.Errorf("Coerce(%v, %v) = %v, want %v", c.in, c.target, got, c.want)
		}
	}
	// Timestamp coercion from common layouts.
	for _, s := range []string{"2009-01-05", "2009-01-05 10:30:00", "2009-01-05T10:30:00Z"} {
		if _, err := NewText(s).Coerce(TypeTimestamp); err != nil {
			t.Errorf("Coerce(%q, TIMESTAMP): %v", s, err)
		}
	}
	// Failures.
	if _, err := NewText("not a number").Coerce(TypeInt); err == nil {
		t.Error("expected coercion error")
	}
	if _, err := NewText("not a date").Coerce(TypeTimestamp); err == nil {
		t.Error("expected coercion error")
	}
	// NULL coerces to anything unchanged.
	if v, err := Null.Coerce(TypeInt); err != nil || !v.IsNull() {
		t.Errorf("NULL coercion = %v, %v", v, err)
	}
}

func TestTypeFromName(t *testing.T) {
	cases := map[string]Type{
		"INT": TypeInt, "integer": TypeInt, "BIGINT": TypeInt,
		"FLOAT": TypeFloat, "double": TypeFloat,
		"TEXT": TypeText, "VarChar": TypeText,
		"BOOL": TypeBool, "boolean": TypeBool,
		"TIMESTAMP": TypeTimestamp, "date": TypeTimestamp,
	}
	for name, want := range cases {
		got, err := TypeFromName(name)
		if err != nil || got != want {
			t.Errorf("TypeFromName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := TypeFromName("BLOB"); err == nil {
		t.Error("unknown type should error")
	}
}

func TestRowCloneAndStrings(t *testing.T) {
	r := Row{NewInt(1), NewText("a")}
	c := r.Clone()
	c[0] = NewInt(2)
	if r[0].Int != 1 {
		t.Error("Clone should copy values")
	}
	s := rowStrings(r)
	if s[0] != "1" || s[1] != "a" {
		t.Errorf("Strings = %v", s)
	}
}

// rowStrings renders every value of a row with String, one at a time: the
// oracle RenderRows is held to.
func rowStrings(r Row) []string {
	out := make([]string, len(r))
	for i, v := range r {
		out[i] = v.String()
	}
	return out
}

// TestRenderRowsMatchesStrings: RenderRows renders every row as its values'
// String does, one at a time, for every kind of value, on either side of its
// stack scratch, and returns an empty (not nil) result for no rows.
func TestRenderRowsMatchesStrings(t *testing.T) {
	ts := time.Date(2009, 1, 5, 12, 0, 0, 0, time.FixedZone("PST", -8*3600))
	kinds := []Value{NewInt(-7), NewInt(1234567890123), NewFloat(3.5), NewFloat(1e-300), NewText("Lake Union"),
		NewText(""), NewBool(true), Null, NewTimestamp(ts), NewInt(0)}
	for _, n := range []int{0, 1, 6, 7, 40} {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{kinds[i%len(kinds)], kinds[(i+3)%len(kinds)], kinds[(i+7)%len(kinds)], NewFloat(float64(i) / 3)}
		}
		got := RenderRows(rows)
		if got == nil || len(got) != n {
			t.Fatalf("%d rows: RenderRows = %#v", n, got)
		}
		for i, row := range rows {
			if want := rowStrings(row); !reflect.DeepEqual(got[i], want) || cap(got[i]) != len(want) {
				t.Fatalf("%d rows: row %d = %q (cap %d), want %q", n, i, got[i], cap(got[i]), want)
			}
		}
	}
}

// Property: Compare is antisymmetric over numeric values and Key is
// consistent with Equal.
func TestPropertyValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int32) bool {
		va, vb := NewInt(int64(a)), NewFloat(float64(b))
		ab, err1 := va.Compare(vb)
		ba, err2 := vb.Compare(va)
		if err1 != nil || err2 != nil {
			return false
		}
		if ab != -ba {
			return false
		}
		if va.Equal(vb) != (va.Key() == vb.Key()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCatalogRowCountAndSchemas(t *testing.T) {
	e := newLakesEngine(t)
	n, err := e.Catalog().RowCount("WaterTemp")
	if err != nil || n != 4 {
		t.Errorf("RowCount = %d, %v", n, err)
	}
	if _, err := e.Catalog().RowCount("missing"); err == nil {
		t.Error("RowCount of missing table should error")
	}
	schemas := e.Catalog().Schemas()
	if len(schemas) != 3 {
		t.Errorf("Schemas = %d tables", len(schemas))
	}
	names := e.Catalog().TableNames()
	if len(names) != 3 || names[0] != "CityLocations" {
		t.Errorf("TableNames = %v", names)
	}
	// SchemaOf returns a copy: mutating it does not change the catalog.
	s, err := e.Catalog().SchemaOf("WaterTemp")
	if err != nil {
		t.Fatal(err)
	}
	s.Columns[0].Name = "mutated"
	s2, _ := e.Catalog().SchemaOf("WaterTemp")
	if s2.Columns[0].Name == "mutated" {
		t.Error("SchemaOf should return a copy")
	}
}

func TestSchemaChangeKindString(t *testing.T) {
	kinds := map[SchemaChangeKind]string{
		ChangeCreateTable:  "CREATE TABLE",
		ChangeDropTable:    "DROP TABLE",
		ChangeAddColumn:    "ADD COLUMN",
		ChangeDropColumn:   "DROP COLUMN",
		ChangeRenameColumn: "RENAME COLUMN",
		ChangeRenameTable:  "RENAME TABLE",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
	if SchemaChangeKind(99).String() != "UNKNOWN" {
		t.Error("unknown kind label wrong")
	}
	if Type(99).String() == "" {
		t.Error("unknown type should still render")
	}
}
