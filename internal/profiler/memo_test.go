package profiler_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/profiler"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// memoOracle is a profiler over a populated engine, checked against fresh
// executions of the statements it answers.
type memoOracle struct {
	eng   *engine.Engine
	store *storage.Store
	p     *profiler.Profiler
	memo  *telemetry.CounterVec
}

func newMemoOracle(t testing.TB, rows int) *memoOracle {
	t.Helper()
	eng := engine.New()
	if err := workload.Populate(eng, rows, 1); err != nil {
		t.Fatal(err)
	}
	store := storage.NewStore()
	p := profiler.New(eng, store, profiler.DefaultConfig())
	reg := telemetry.NewRegistry()
	p.EnableMetrics(reg)
	return &memoOracle{eng: eng, store: store, p: p, memo: reg.CounterVec("cqms_profiler_memo_total", "", "outcome")}
}

func (o *memoOracle) count(outcome string) uint64 { return o.memo.With(outcome).Value() }

// check submits a SELECT and executes it again, fresh, on the same engine.
// When no table changed from before the submit to after the fresh execution,
// the answer and the logged record must be the fresh execution's: the same
// columns, cardinality and inline rows, and a sample of the first rows the
// answer's elapsed time buys. It reports whether it compared.
func (o *memoOracle) check(text string) (compared bool, err error) {
	epoch := o.eng.Catalog().Epoch()
	out, err := o.p.Submit(profiler.Submission{User: "alice", SQL: text})
	if err != nil {
		return false, fmt.Errorf("Submit(%q): %v", text, err)
	}
	res, execErr := o.eng.Execute(text)
	if o.eng.Catalog().Epoch() != epoch {
		return false, nil
	}
	if (execErr == nil) != (out.ExecError == nil) {
		return true, fmt.Errorf("%q: submit error %v, fresh execution error %v", text, out.ExecError, execErr)
	}
	if execErr != nil {
		return true, nil
	}
	// Each value rendered on its own with String: the oracle for the rows
	// the memo hands out, which engine.RenderRows renders in bulk.
	rendered := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		rendered[i] = make([]string, len(row))
		for j, v := range row {
			rendered[i][j] = v.String()
		}
	}
	got, n := out.Result, len(res.Rows)
	inline := rendered[:min(n, profiler.MaxInlineRows)]
	if !reflect.DeepEqual(got.Columns, res.Columns) || got.RowCount != n || got.Cardinality() != n ||
		len(got.Rows) != len(inline) || len(inline) > 0 && !reflect.DeepEqual(got.Rows, inline) {
		return true, fmt.Errorf("%q answered %v, %d rows %v; fresh execution %v, %d rows %v",
			text, got.Columns, got.RowCount, got.Rows, res.Columns, n, inline)
	}
	rec, err := o.store.Get(out.QueryID, storage.Principal{Admin: true})
	if err != nil {
		return true, err
	}
	take := min(n, profiler.DefaultSamplePolicy().Budget(got.Elapsed))
	want := &storage.OutputSample{Columns: res.Columns, Rows: rendered[:take:take], TotalRows: n, Truncated: take < n}
	if sm := rec.Sample; sm == nil || !reflect.DeepEqual(sm.Columns, want.Columns) || !reflect.DeepEqual(sm.Rows, want.Rows) ||
		sm.TotalRows != n || sm.Truncated != want.Truncated {
		return true, fmt.Errorf("%q logged sample %+v, want the first %d fresh rows %+v", text, rec.Sample, take, want)
	}
	if st := rec.Stats; st.ExecTime != got.Elapsed || st.ResultRows != n || st.ResultColumns != len(res.Columns) || st.Error != "" {
		return true, fmt.Errorf("%q logged stats %+v for an answer of %d rows in %v", text, st, n, got.Elapsed)
	}
	return true, nil
}

// memoSelects returns the SELECTs a history repeats: the exploratory
// generator's, and a few over the columns and tables the writes change.
func memoSelects(seed int64, n int) []string {
	src := workload.NewQuerySource(seed)
	texts := []string{
		"SELECT * FROM WaterTemp WHERE id < 12",
		"SELECT lake, temp FROM WaterTemp WHERE temp > 15 ORDER BY temp",
		"SELECT lake, COUNT(*) AS n FROM WaterTemp GROUP BY lake ORDER BY lake",
		"SELECT COUNT(*) FROM WaterSalinity",
		"SELECT * FROM Sensors ORDER BY sensor_id",
	}
	for i := 0; len(texts) < n; i++ {
		texts = append(texts, src.Query([]string{"limnology", "astro"}[i%2]))
	}
	return texts
}

// memoWrite makes one random change to the tables: an INSERT, UPDATE or
// DELETE in SQL, a direct Catalog().Insert (the path Populate loads by), or
// DDL that adds, drops or renames a column, renames a table, or drops a table
// and creates it again. A change that does not apply (the column is already
// there, the table is renamed away) applies its inverse instead, so a history
// keeps coming back to the schema its SELECTs read. SQL runs through the
// profiler half of the time, which must not memoize it. Errors are part of
// the history, not failures.
func (o *memoOracle) memoWrite(r *rand.Rand) {
	exec := func(text string) error {
		if r.Intn(2) == 0 {
			out, err := o.p.Submit(profiler.Submission{User: "writer", SQL: text})
			if err != nil {
				return err
			}
			return out.ExecError
		}
		_, err := o.eng.Execute(text)
		return err
	}
	either := func(do, undo string) {
		if exec(do) != nil {
			_ = exec(undo)
		}
	}
	switch r.Intn(9) {
	case 0:
		_ = exec(fmt.Sprintf("INSERT INTO WaterTemp (id, lake, temp) VALUES (%d, 'Lake Oracle', %d.5)", 100+r.Intn(900), r.Intn(30)))
	case 1:
		_ = exec(fmt.Sprintf("UPDATE WaterTemp SET measured_day = measured_day + 1 WHERE id < %d", r.Intn(30)))
	case 2:
		_ = exec(fmt.Sprintf("DELETE FROM WaterTemp WHERE id = %d", 1+r.Intn(30)))
	case 3:
		_, _ = o.eng.Catalog().Insert("WaterSalinity", []string{"id", "lake", "salinity"},
			[]engine.Row{{engine.NewInt(int64(100 + r.Intn(900))), engine.NewText("Lake Oracle"), engine.NewFloat(r.Float64())}})
	case 4:
		either("ALTER TABLE WaterTemp ADD COLUMN note TEXT", "ALTER TABLE WaterTemp DROP COLUMN note")
	case 5:
		either("ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature", "ALTER TABLE WaterTemp RENAME COLUMN temperature TO temp")
	case 6:
		either("ALTER TABLE WaterSalinity RENAME TO Salinity", "ALTER TABLE Salinity RENAME TO WaterSalinity")
	case 7:
		either("DROP TABLE Sensors", "CREATE TABLE Sensors (sensor_id INT PRIMARY KEY, lake TEXT, kind TEXT, installed_day INT, battery FLOAT)")
	case 8:
		_ = exec(fmt.Sprintf("UPDATE WaterTemp SET temp = temp + 1 WHERE id = %d", 1+r.Intn(30)))
	}
}

// TestMemoMatchesFreshExecution: over a seeded history of repeated SELECTs
// interleaved with every kind of write, each answer — a memo hit or not — is
// what executing the statement afresh on the same engine answers, and its
// record logs the sample of that answer.
func TestMemoMatchesFreshExecution(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			o := newMemoOracle(t, 30)
			r := rand.New(rand.NewSource(seed))
			texts := memoSelects(seed, 12)
			for step := 0; step < 600; step++ {
				if r.Intn(8) == 0 {
					o.memoWrite(r)
					continue
				}
				if _, err := o.check(texts[r.Intn(len(texts))]); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if o.count("hit") == 0 || o.count("miss") == 0 {
				t.Fatalf("memo hits %d, misses %d: the history exercised one path only", o.count("hit"), o.count("miss"))
			}
			t.Logf("memo hits %d, misses %d", o.count("hit"), o.count("miss"))
		})
	}
}

// TestMemoMatchesFreshExecutionConcurrently is the oracle with writers
// running beside the submitters: an answer checked while no table changed
// must be the fresh execution's. Run it under -race.
func TestMemoMatchesFreshExecutionConcurrently(t *testing.T) {
	o := newMemoOracle(t, 30)
	texts := memoSelects(1, 8)
	stop := make(chan struct{})
	var writers, submitters sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(r *rand.Rand) {
			defer writers.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
					o.memoWrite(r)
				}
			}
		}(rand.New(rand.NewSource(int64(100 + w))))
	}
	var mu sync.Mutex
	compared := 0
	for s := 0; s < 3; s++ {
		submitters.Add(1)
		go func(r *rand.Rand) {
			defer submitters.Done()
			for i := 0; i < 200; i++ {
				ok, err := o.check(texts[r.Intn(len(texts))])
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					mu.Lock()
					compared++
					mu.Unlock()
				}
			}
		}(rand.New(rand.NewSource(int64(s))))
	}
	submitters.Wait()
	close(stop)
	writers.Wait()
	if compared == 0 || o.count("hit") == 0 {
		t.Fatalf("compared %d answers, %d memo hits: nothing was checked", compared, o.count("hit"))
	}
	t.Logf("compared %d of 600 answers; memo hits %d, misses %d", compared, o.count("hit"), o.count("miss"))
}

// TestMemoSeesEveryDataWrite: the memo is keyed on the catalog's data epoch,
// not its schema version. A write to the rows between two identical SELECTs
// leaves Catalog.Version where it was, and the second answer still sees it.
func TestMemoSeesEveryDataWrite(t *testing.T) {
	const query = "SELECT id, temp FROM WaterTemp ORDER BY id"
	for _, tc := range []struct {
		name  string
		write func(eng *engine.Engine) error
	}{
		{"INSERT", func(eng *engine.Engine) error {
			_, err := eng.Execute("INSERT INTO WaterTemp (id, temp) VALUES (99, 1.5)")
			return err
		}},
		{"UPDATE", func(eng *engine.Engine) error {
			_, err := eng.Execute("UPDATE WaterTemp SET temp = 2.5 WHERE id = 1")
			return err
		}},
		{"DELETE", func(eng *engine.Engine) error {
			_, err := eng.Execute("DELETE FROM WaterTemp WHERE id = 2")
			return err
		}},
		{"Catalog().Insert", func(eng *engine.Engine) error {
			_, err := eng.Catalog().Insert("WaterTemp", []string{"id", "temp"}, []engine.Row{{engine.NewInt(98), engine.NewFloat(3.5)}})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := newMemoOracle(t, 5)
			submit := func() *profiler.Answer {
				t.Helper()
				out, err := o.p.Submit(profiler.Submission{User: "alice", SQL: query})
				if err != nil || out.ExecError != nil {
					t.Fatalf("Submit: %v, %v", err, out.ExecError)
				}
				return out.Result
			}
			before := submit()
			if again := submit(); o.count("hit") != 1 || !reflect.DeepEqual(again.Rows, before.Rows) {
				t.Fatalf("a repeat over unchanged data: %d hits, rows %v, want 1 hit answering %v", o.count("hit"), again.Rows, before.Rows)
			}
			version := o.eng.Catalog().Version()
			if err := tc.write(o.eng); err != nil {
				t.Fatal(err)
			}
			if v := o.eng.Catalog().Version(); v != version {
				t.Fatalf("%s moved the schema version %d -> %d", tc.name, version, v)
			}
			after := submit()
			if reflect.DeepEqual(after.Rows, before.Rows) {
				t.Fatalf("the answer after the %s is the one before it: %v", tc.name, after.Rows)
			}
			if ok, err := o.check(query); !ok || err != nil {
				t.Fatalf("after the %s: compared %v, %v", tc.name, ok, err)
			}
			if o.count("hit") != 2 {
				t.Fatalf("memo hits = %d, want 2: the repeat after the write misses, the check's hits", o.count("hit"))
			}
		})
	}
}
