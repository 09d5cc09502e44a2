package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentDMLAndSelectAreRaceFree runs INSERT, UPDATE, DELETE and ALTER
// against joins and aggregates over the same table. Every writing statement
// keeps SUM(x) = 0 over the table as a whole — an UPDATE moves the two halves
// of the table in opposite directions, an INSERT adds and a DELETE removes a
// +v / -v pair — and a SELECT reads each table reference as one published
// version, so every reading statement must see a zero sum: a half-applied
// write shows as a non-zero one, and a write into rows a reader holds shows
// under -race.
func TestConcurrentDMLAndSelectAreRaceFree(t *testing.T) {
	e := New()
	for _, q := range []string{
		"CREATE TABLE acct (id INT, side INT, x INT, note TEXT)",
		"CREATE TABLE sides (side INT, name TEXT)",
		"INSERT INTO sides VALUES (1, 'debit'), (2, 'credit')",
	} {
		e.MustExecute(q)
	}
	for id := 0; id < 50; id++ {
		e.MustExecute(fmt.Sprintf("INSERT INTO acct VALUES (%d, 1, 0, 'a'), (%d, 2, 0, 'b')", id, id))
	}

	const rounds = 150
	writers := [][]string{
		{"UPDATE acct SET x = x + CASE WHEN side = 1 THEN 1 ELSE -1 END"},
		{"UPDATE acct SET x = x - CASE WHEN side = 1 THEN 3 ELSE -3 END, id = id WHERE id < 25"},
		{"INSERT INTO acct (id, side, x) VALUES (1000, 1, 7), (1000, 2, -7)", "DELETE FROM acct WHERE id = 1000"},
		{"ALTER TABLE acct ADD COLUMN extra INT", "ALTER TABLE acct DROP COLUMN extra"},
		{"ALTER TABLE acct RENAME COLUMN note TO memo", "ALTER TABLE acct RENAME COLUMN memo TO note"},
	}
	var writing sync.WaitGroup
	var done atomic.Bool
	for _, script := range writers {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := 0; i < rounds; i++ {
				for _, q := range script {
					if _, err := e.Execute(q); err != nil {
						t.Errorf("%s: %v", q, err)
						return
					}
				}
			}
		}()
	}

	readers := []struct {
		query string
		check func(res *Result) error
	}{
		{"SELECT SUM(x), COUNT(*) FROM acct", func(res *Result) error {
			if sum, n := res.Rows[0][0].Int, res.Rows[0][1].Int; sum != 0 || n%2 != 0 {
				return fmt.Errorf("SUM(x) = %d over %d rows", sum, n)
			}
			return nil
		}},
		{"SELECT sides.name, SUM(acct.x), COUNT(*) FROM acct, sides WHERE acct.side = sides.side GROUP BY sides.name ORDER BY sides.name", func(res *Result) error {
			if len(res.Rows) != 2 || res.Rows[0][1].Int+res.Rows[1][1].Int != 0 || res.Rows[0][2].Int != res.Rows[1][2].Int {
				return fmt.Errorf("per-side sums %v", res.Rows)
			}
			return nil
		}},
		{"SELECT * FROM acct JOIN sides ON acct.side = sides.side AND sides.side > 0 ORDER BY acct.id", func(res *Result) error {
			sum := int64(0)
			for _, row := range res.Rows {
				if len(row) != len(res.Columns) {
					return fmt.Errorf("row of %d values under %d columns", len(row), len(res.Columns))
				}
				sum += row[2].Int
			}
			if sum != 0 {
				return fmt.Errorf("x sums to %d over %d joined rows", sum, len(res.Rows))
			}
			return nil
		}},
		{"SELECT id, SUM(x) FROM acct WHERE x <> 0 GROUP BY id HAVING SUM(x) <> 0", func(res *Result) error {
			if len(res.Rows) != 0 {
				return fmt.Errorf("ids whose two sides do not cancel: %v", res.Rows)
			}
			return nil
		}},
	}
	var reading sync.WaitGroup
	for _, r := range readers {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for i := 0; i < rounds || !done.Load(); i++ {
				res, err := e.Execute(r.query)
				if err == nil {
					err = r.check(res)
				}
				if err != nil {
					t.Errorf("%s: %v", r.query, err)
					return
				}
			}
		}()
	}
	writing.Wait()
	done.Store(true)
	reading.Wait()
}
