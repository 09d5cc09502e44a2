package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/workload"
)

// The statements of the layer benchmark and of the allocation budget: the
// shapes the workload generator issues, over workload.Populate's tables.
const (
	pointSQL       = "SELECT * FROM WaterTemp WHERE id = 42"
	filterOrderSQL = "SELECT lake, temp FROM WaterTemp WHERE temp < 18 ORDER BY temp"
	join2StarSQL   = "SELECT * FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x"
	join2ProjSQL   = "SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x"
	join3SQL       = "SELECT WaterSalinity.salinity, WaterTemp.temp, CityLocations.city FROM WaterSalinity, WaterTemp, CityLocations WHERE WaterSalinity.loc_x = WaterTemp.loc_x AND WaterTemp.loc_x = CityLocations.loc_x AND CityLocations.state = 'WA'"
	groupBySQL     = "SELECT Stars.name, AVG(Observations.flux) AS avg_flux FROM Stars, Observations WHERE Stars.star_id = Observations.star_id GROUP BY Stars.name ORDER BY avg_flux DESC LIMIT 20"
)

func populated(tb testing.TB, rowsPerTable int) *engine.Engine {
	tb.Helper()
	eng := engine.New()
	if err := workload.Populate(eng, rowsPerTable, 1); err != nil {
		tb.Fatal(err)
	}
	return eng
}

func parsed(tb testing.TB, queries ...string) []sql.Statement {
	tb.Helper()
	stmts := make([]sql.Statement, len(queries))
	for i, q := range queries {
		stmt, err := sql.Parse(q)
		if err != nil {
			tb.Fatalf("%s: %v", q, err)
		}
		stmts[i] = stmt
	}
	return stmts
}

// generatorMix is what the repository benchmark's explore_mix submits: the
// generator's statements, two limnologists to one astronomer.
func generatorMix(n int) []string {
	src := workload.NewQuerySource(1)
	out := make([]string, n)
	for i := range out {
		out[i] = src.Query(workload.GroupOf(i%3, 3))
	}
	return out
}

// BenchmarkEngineExecute is the layer benchmark of engine execution, the
// stage the harness traces as engine.execute_us and the server exports as
// cqms_engine_execute_seconds: parsed statements against 500-row tables. mix
// is the population those two sample.
func BenchmarkEngineExecute(b *testing.B) {
	eng := populated(b, 500)
	for _, bc := range []struct {
		name    string
		queries []string
	}{
		{"point", []string{pointSQL}},
		{"filter_order", []string{filterOrderSQL}},
		{"join2_star", []string{join2StarSQL}},
		{"join2_project", []string{join2ProjSQL}},
		{"join3", []string{join3SQL}},
		{"group_by", []string{groupBySQL}},
		{"mix", generatorMix(512)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			stmts := parsed(b, bc.queries...)
			rows := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.ExecuteStmt(stmts[i%len(stmts)])
				if err != nil {
					b.Fatal(err)
				}
				rows += len(res.Rows)
			}
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
		})
	}
}

// TestExecuteAllocationBudget keeps the executor's allocation count a
// function of the statement, not of the rows it reads or returns: one slab per
// stage, one environment per loop, names bound and literals converted once.
// A per-row allocation anywhere in the pipeline blows these budgets by an
// order of magnitude (the wide-row executor measured 1,338 / 14,197 / 1,599 /
// 522 / 7,116 on the five).
func TestExecuteAllocationBudget(t *testing.T) {
	small, large := populated(t, 100), populated(t, 500)
	measure := func(eng *engine.Engine, query string) (allocs float64, rows int) {
		stmt := parsed(t, query)[0]
		allocs = testing.AllocsPerRun(20, func() {
			res, err := eng.ExecuteStmt(stmt)
			if err != nil {
				t.Fatal(err)
			}
			rows = len(res.Rows)
		})
		return allocs, rows
	}
	for _, c := range []struct {
		name   string
		eng    *engine.Engine
		query  string
		rows   int
		budget float64
	}{
		{"join at 100 rows", small, join2StarSQL, 194, 64},
		{"join at 500 rows", large, join2StarSQL, 2942, 64},
		{"filter and order", large, filterOrderSQL, 0, 48},
		{"point lookup", large, pointSQL, 1, 32},
	} {
		allocs, rows := measure(c.eng, c.query)
		if c.rows != 0 && rows != c.rows {
			t.Errorf("%s: %d rows, want %d", c.name, rows, c.rows)
		}
		t.Logf("%s: %.0f allocations for %d rows", c.name, allocs, rows)
		if allocs > c.budget {
			t.Errorf("%s: %.0f allocations for %d rows, budget %.0f", c.name, allocs, rows, c.budget)
		}
	}

	// Grouping is bounded by the groups, not by the tuples grouped.
	res, err := large.Execute("SELECT COUNT(DISTINCT Stars.name), COUNT(*) FROM Stars, Observations WHERE Stars.star_id = Observations.star_id")
	if err != nil {
		t.Fatal(err)
	}
	groups, tuples := res.Rows[0][0].Int, res.Rows[0][1].Int
	allocs, _ := measure(large, groupBySQL)
	t.Logf("group by: %.0f allocations for %d groups over %d tuples", allocs, groups, tuples)
	if budget := float64(64 + 8*groups); allocs > budget {
		t.Errorf("group by: %.0f allocations for %d groups over %d tuples, budget %.0f", allocs, groups, tuples, budget)
	}
}
