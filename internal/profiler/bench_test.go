package profiler_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/profiler"
	"repro/internal/storage"
	"repro/internal/workload"
)

// BenchmarkProfilerSubmit is the layer benchmark of the stage the repository
// benchmark's trace reports as core.submit_us: one statement through the
// profiler's submission body — parse, record, execute, render, sample, Put —
// into an in-memory store with no subscribers. point is the capture
// workload's templated lookup, join the exploratory workload's two-table
// correlation; the tables hold 100 rows so the front end is not drowned by
// execution. hit repeats the statement over unchanged data, so the memo
// answers it; a miss iteration first inserts a row into a table the statement
// does not read, untimed, which moves the catalog's data epoch as any write
// does, so the statement executes.
func BenchmarkProfilerSubmit(b *testing.B) {
	unread := []engine.Row{{engine.NewText("Bench City"), engine.NewText("WA"), engine.NewInt(1), engine.NewInt(2), engine.NewInt(3)}}
	for _, bc := range []struct{ name, sql string }{
		{"point", "SELECT lake, temp FROM WaterTemp WHERE id = 42"},
		{"join", "SELECT WaterSalinity.lake, WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp " +
			"WHERE WaterSalinity.loc_x = WaterTemp.loc_x AND WaterSalinity.loc_y = WaterTemp.loc_y AND WaterTemp.temp < 18"},
	} {
		for _, miss := range []bool{false, true} {
			name := bc.name + "/hit"
			if miss {
				name = bc.name + "/miss"
			}
			b.Run(name, func(b *testing.B) {
				eng := engine.New()
				if err := workload.Populate(eng, 100, 1); err != nil {
					b.Fatal(err)
				}
				p := profiler.New(eng, storage.NewStore(), profiler.DefaultConfig())
				sub := profiler.Submission{User: "alice", Group: "limnology", Visibility: storage.VisibilityGroup, SQL: bc.sql}
				if _, err := p.Submit(sub); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if miss {
						b.StopTimer()
						if _, err := eng.Catalog().Insert("CityLocations", nil, unread); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					if out, err := p.Submit(sub); err != nil || out.ExecError != nil {
						b.Fatalf("Submit: %v, %+v", err, out)
					}
				}
			})
		}
	}
}
