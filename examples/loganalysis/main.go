// Log-analysis / administration scenario: the Administrative Interaction Mode
// (§2.4) plus Query Maintenance (§4.4). An administrator watches the shared
// query log and the edits its users make, evolves the schema, lets the
// maintenance component repair or flag affected queries, refreshes stale
// statistics and inspects query-quality scores.
//
// Run with:
//
//	go run ./examples/loganalysis
package main

import (
	"fmt"
	"log"
	"sort"

	cqms "repro"
	"repro/internal/profiler"
	"repro/internal/session"
	"repro/internal/workload"
)

func main() {
	sys := cqms.New(cqms.DefaultConfig())
	if err := cqms.PopulateScientificDB(sys.Engine(), 700, 11); err != nil {
		log.Fatalf("populating database: %v", err)
	}
	cfg := workload.DefaultConfig()
	cfg.Users = 10
	cfg.SessionsPerUser = 5
	cfg.Seed = 11
	trace := workload.Generate(cfg)
	prof := profiler.New(sys.Engine(), sys.Store(), profiler.DefaultConfig())
	if _, err := workload.Replay(trace, prof); err != nil {
		log.Fatalf("replay: %v", err)
	}

	admin := cqms.Admin

	// 1. What is the lab actually querying? The stats tracker counts it as
	//    queries are logged.
	users, _ := sys.Store().DistinctCounts()
	fmt.Printf("query log: %d queries, %d distinct users\n", sys.Store().Count(), users)
	fmt.Println("most queried relations:")
	for i, tc := range sys.StatsTracker().TableCounts(admin) {
		if i == 5 {
			break
		}
		fmt.Printf("  %-15s %d queries\n", tc.Table, tc.Count)
	}
	// Edit patterns are mined from the labelled edges of the log's sessions.
	var edges []session.Edge
	for _, s := range session.Detect(sys.Store().Snapshot().Records(admin)) {
		edges = append(edges, s.Edges...)
	}
	fmt.Println("most common query edits (mined from session edges):")
	for i, p := range mineEditPatterns(edges, 2) {
		if i == 5 {
			break
		}
		fmt.Printf("  %-45s %d times\n", p.Pattern, p.Count)
	}

	// 2. The schema evolves: a column is renamed and a sensor table dropped.
	fmt.Println("\napplying schema changes: RENAME WaterTemp.temp -> temperature, DROP TABLE Sensors")
	sys.Engine().MustExecute("ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature")
	sys.Engine().MustExecute("DROP TABLE Sensors")

	// 3. Maintenance scan: renames are repaired automatically, queries over
	//    the dropped table are flagged.
	report, err := sys.RunMaintenance()
	if err != nil {
		log.Fatalf("maintenance: %v", err)
	}
	fmt.Printf("maintenance scan over %d queries: %d repaired, %d invalidated, %d statistics refreshed\n",
		report.Checked, len(report.Repaired), len(report.Invalidated), len(report.StatsRefreshed))
	for i, rep := range report.Repaired {
		if i == 3 {
			break
		}
		fmt.Printf("  repaired q%d: %s\n", rep.ID, rep.NewText)
	}
	for i, inv := range report.Invalidated {
		if i == 3 {
			break
		}
		fmt.Printf("  flagged  q%d: %s\n", inv.ID, inv.Reason)
	}

	// 4. Quality scores let the administrator (and the recommender) prefer
	//    well-documented, efficient queries.
	records := sys.Store().Snapshot().Records(admin)
	sort.Slice(records, func(i, j int) bool { return records[i].Quality() > records[j].Quality() })
	fmt.Println("\nhighest-quality logged queries:")
	for i, rec := range records {
		if i == 3 {
			break
		}
		fmt.Printf("  [%.2f] %s\n", rec.Quality(), rec.Canonical)
	}
	invalid := sys.Store().InvalidQueries()
	fmt.Printf("\nqueries currently flagged invalid: %d\n", len(invalid))
}
