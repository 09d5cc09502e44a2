// Quickstart: embed the CQMS in a Go program, run a few queries through it,
// search the resulting query log and ask for recommendations.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	cqms "repro"
)

func main() {
	// 1. Create the system over a fresh embedded engine and load the
	//    synthetic scientific database (the paper's lakes schema).
	sys := cqms.New(cqms.DefaultConfig())
	if err := cqms.PopulateScientificDB(sys.Engine(), 500, 1); err != nil {
		log.Fatalf("populating database: %v", err)
	}

	ctx := context.Background()
	alice := cqms.Principal{User: "alice", Groups: []string{"limnology"}}

	// 2. Traditional Interaction Mode: run queries; the CQMS logs them
	//    transparently.
	queries := []string{
		"SELECT lake, temp FROM WaterTemp WHERE temp < 18",
		"SELECT WaterTemp.lake, WaterTemp.temp, WaterSalinity.salinity FROM WaterTemp, WaterSalinity WHERE WaterTemp.loc_x = WaterSalinity.loc_x AND WaterTemp.temp < 18",
		"SELECT lake, AVG(temp) AS avg_temp FROM WaterTemp GROUP BY lake ORDER BY avg_temp DESC",
	}
	for _, q := range queries {
		out, err := sys.Submit(cqms.Submission{
			User: "alice", Group: "limnology", Visibility: cqms.VisibilityGroup, SQL: q,
		})
		if err != nil {
			log.Fatalf("submit: %v", err)
		}
		fmt.Printf("ran query %d: %d rows in %s\n", out.QueryID, out.Result.Cardinality(), out.Result.Elapsed)
	}

	// 3. Annotate the correlation query so others can find it.
	if err := sys.Annotate(2, alice, cqms.Annotation{Text: "temperature vs salinity for Seattle lakes"}); err != nil {
		log.Fatalf("annotate: %v", err)
	}

	// 4. Run a mining pass (normally periodic in the background) so the
	//    assisted mode has association rules and sessions to work with.
	mining := sys.RunMiner()
	fmt.Printf("\nmined %d queries into %d rules\n",
		mining.TransactionCount, len(mining.Rules))

	// 5. Search & Browse Interaction Mode: keyword search and the Figure 1
	//    meta-query.
	fmt.Println("\nkeyword search for 'salinity':")
	searchMatches, err := sys.Search(ctx, alice, "salinity")
	if err != nil {
		log.Fatalf("search: %v", err)
	}
	for _, m := range searchMatches {
		fmt.Printf("  [q%d] %s\n", m.Record.ID, m.Record.Canonical)
	}

	_, matches, err := sys.MetaQuery(ctx, alice, `SELECT Q.qid, Q.qText
		FROM Queries Q, DataSources D1, DataSources D2
		WHERE Q.qid = D1.qid AND Q.qid = D2.qid
		AND D1.relName = 'WaterSalinity' AND D2.relName = 'WaterTemp'`)
	if err != nil {
		log.Fatalf("meta-query: %v", err)
	}
	fmt.Println("\nFigure 1 meta-query (queries correlating salinity with temperature):")
	for _, m := range matches {
		fmt.Printf("  [q%d] %s\n", m.Record.ID, m.Record.Canonical)
	}

	// 6. Assisted Interaction Mode: ask for completions while composing a new
	//    query, and for the Figure 3 similar-queries pane.
	fmt.Println("\ncompletions for 'SELECT * FROM WaterSalinity':")
	suggestions, err := sys.SuggestTables(ctx, alice, "SELECT * FROM WaterSalinity", 3)
	if err != nil {
		log.Fatalf("suggest tables: %v", err)
	}
	for _, c := range suggestions {
		fmt.Printf("  add table %-15s (%s)\n", c.Text, c.Reason)
	}

	pane, err := sys.AssistPane(ctx, alice, "SELECT * FROM WaterSalinity, WaterTemp WHERE ", 3)
	if err != nil {
		log.Fatalf("assist pane: %v", err)
	}
	fmt.Println("\nassisted-interaction pane (Figure 3):")
	fmt.Println(pane)
}
