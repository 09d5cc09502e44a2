package sql_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// goldenRecord is one line of testdata/parent_records.jsonl: what commit
// 2181341, the last one whose front end parsed a statement once per stored
// field, stored for a statement. The file was written by that commit's
// storage.NewRecordFromSQL / NewRawRecord over the workload generator's
// statements, DDL/DML, the printer's corner cases and unparsable text; the
// text-in oracle cannot pin the printer because it prints with the printer
// under test, this file can.
type goldenRecord struct {
	Text        string   `json:"text"`
	Canonical   string   `json:"canonical"`
	Template    string   `json:"template"`
	Fingerprint string   `json:"fingerprint"`
	ExactHash   string   `json:"exactHash"`
	Valid       bool     `json:"valid"`
	Tables      []string `json:"tables,omitempty"`
	Features    []string `json:"features,omitempty"`
}

// reprinted lists the statements of the golden file whose record differs from
// the parent's on purpose, each with what changed. Everything else must be
// byte-identical, so the same statement logged before and after the upgrade
// lands in the same fingerprint class. README "Write path" carries the same
// list for operators.
var reprinted = map[string]string{
	"SELECT a - (b - c) FROM t":     "printed a - b - c, a different expression",
	"SELECT a / (b * c) FROM t":     "printed a / b * c, a different expression",
	"SELECT a || (b || c) FROM t":   "printed a || b || c; only AND and OR print flat",
	"SELECT (a = b) = c FROM t":     "printed a = b = c, which does not parse",
	"SELECT (a IS NULL) = x FROM t": "printed a IS NULL = x, which does not parse",
	"SELECT (NOT a) = b FROM t":     "printed NOT a = b, which parses as NOT (a = b)",
	"SELECT -(a IS NULL) FROM t":    "printed -a IS NULL, which parses as (-a) IS NULL",
	"SELECT - -x FROM t":            "printed --x, a comment",
	"SELECT -(-1) FROM t":           "printed --1, a comment",
	`SELECT "my col" FROM t`:        "printed my col, an alias",
	`SELECT "select" FROM t`:        "printed select, a keyword",
	`SELECT "Key" FROM t`:           "printed Key, which reads back as key",
	"SELECT -a, - -a, -(-1), -(a + b), NOT (a = b), NOT a, a - (b - c), a / (b * c), (a = b) = c, (a IS NULL) = TRUE FROM t": "several of the above",
	"SELECT a || 'x' || (b || 'y'), a AND (b AND c), a OR (b OR c), (a OR b) AND c FROM t":                                   "a || (b || c)",
	`SELECT "select", "my col" AS "from", date, t."key" FROM "order" AS date, t "text" WHERE "a""b" = 'it''s'`:               "identifiers that need their quotes",
	"SELECT a FROM t ORDER BY (SELECT MAX(b) FROM u)":                                                                        "canonical unchanged; Tables and Features now see the sub-query in ORDER BY",
	"SELECT a FROM t GROUP BY (SELECT MAX(b) FROM u)":                                                                        "canonical unchanged; Tables and Features now see the sub-query in GROUP BY",
}

// TestRecordsMatchParentGolden holds the one-parse front end to what the
// parent commit stored: canonical form, template, both hashes, tables and
// feature set. A printer or analysis change that moves any of them for a
// statement outside reprinted fails here; one that is meant edits the golden
// line and the list in README together.
func TestRecordsMatchParentGolden(t *testing.T) {
	f, err := os.Open("testdata/parent_records.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := bufio.NewScanner(f)
	lines.Buffer(nil, 1<<20)
	rows, changed := 0, 0
	for lines.Scan() {
		var want goldenRecord
		if err := json.Unmarshal(lines.Bytes(), &want); err != nil {
			t.Fatalf("line %d: %v", rows+1, err)
		}
		rows++
		rec, _ := frontEndRecord(want.Text)
		got := goldenRecord{
			Text: rec.Text, Canonical: rec.Canonical, Template: rec.Template,
			Fingerprint: fmt.Sprintf("%016x", rec.Fingerprint), ExactHash: fmt.Sprintf("%016x", rec.ExactHash),
			Valid: rec.Valid, Tables: rec.Tables, Features: rec.Features,
		}
		why, meant := reprinted[want.Text]
		switch same := reflect.DeepEqual(got, want); {
		case meant && same:
			t.Errorf("%q is listed as reprinted (%s) but its record equals the parent's", want.Text, why)
		case meant:
			changed++
		case !same:
			t.Errorf("%q\n   now: %+v\nparent: %+v", want.Text, got, want)
		}
	}
	if err := lines.Err(); err != nil {
		t.Fatal(err)
	}
	if rows < 90 || changed != len(reprinted) {
		t.Errorf("golden file has %d rows, %d of the %d reprinted statements", rows, changed, len(reprinted))
	}
}
