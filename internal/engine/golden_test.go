package engine_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// goldenResult is one line of testdata/parent_results.jsonl: what commit
// 1cf4504, the last one whose executor joined by copying wide rows and
// resolved column names per row, returned for a statement. The lines run in
// file order against one of two databases: "gen" is workload.Populate(eng,
// 500, 1) under the statements of workload.NewQuerySource, "lakes" starts
// empty and is built by the file's own DDL and DML lines (the running example
// of engine_test.go plus tables with NULL, mixed int/float, text, boolean and
// timestamp keys and an empty table), so every SELECT shape of engine_test.go
// and each error case is pinned against what the parent computed for it.
type goldenResult struct {
	DB       string   `json:"db"`
	SQL      string   `json:"sql"`
	Columns  []string `json:"columns,omitempty"`
	Rows     int      `json:"rows"`
	Affected int64    `json:"affected,omitempty"`
	// SHA256 is over every value of every row in order: its type, its
	// rendering, a unit separator; a record separator ends each row.
	SHA256 string `json:"sha256"`
	Error  string `json:"error,omitempty"`
}

// runGolden executes one statement and renders its outcome as a golden line.
func runGolden(eng *engine.Engine, db, query string) goldenResult {
	out := goldenResult{DB: db, SQL: query}
	res, err := eng.Execute(query)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	out.Rows, out.Affected = len(res.Rows), res.RowsAffected
	if len(res.Columns) > 0 {
		out.Columns = res.Columns
	}
	h := sha256.New()
	for _, row := range res.Rows {
		for _, v := range row {
			fmt.Fprintf(h, "%d:%s\x1f", v.Type, v.String())
		}
		h.Write([]byte{0x1e})
	}
	out.SHA256 = hex.EncodeToString(h.Sum(nil))
	return out
}

// goldenEngines returns the databases the golden lines name.
func goldenEngines(t testing.TB) map[string]*engine.Engine {
	t.Helper()
	gen := engine.New()
	if err := workload.Populate(gen, 500, 1); err != nil {
		t.Fatal(err)
	}
	return map[string]*engine.Engine{"gen": gen, "lakes": engine.New()}
}

// TestResultsMatchParentGolden replays the parent's statements: columns, row
// count, every value in order, affected rows and error text must be what the
// wide-row executor produced. No line is excused.
func TestResultsMatchParentGolden(t *testing.T) {
	f, err := os.Open("testdata/parent_results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	engines := goldenEngines(t)
	lines := bufio.NewScanner(f)
	lines.Buffer(nil, 1<<20)
	perDB := map[string]int{}
	errors := 0
	for n := 1; lines.Scan(); n++ {
		var want goldenResult
		if err := json.Unmarshal(lines.Bytes(), &want); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		eng, ok := engines[want.DB]
		if !ok {
			t.Fatalf("line %d: unknown database %q", n, want.DB)
		}
		perDB[want.DB]++
		if want.Error != "" {
			errors++
		}
		if got := runGolden(eng, want.DB, want.SQL); !reflect.DeepEqual(got, want) {
			t.Errorf("line %d: %s\n   now: %+v\nparent: %+v", n, want.SQL, got, want)
		}
	}
	if err := lines.Err(); err != nil {
		t.Fatal(err)
	}
	if perDB["gen"] < 1000 || perDB["lakes"] < 200 || errors < 20 {
		t.Errorf("golden file has %d generator and %d lakes statements, %d of them errors", perDB["gen"], perDB["lakes"], errors)
	}
}
