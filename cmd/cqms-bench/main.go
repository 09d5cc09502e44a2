// Command cqms-bench runs the experiment harness (internal/experiments,
// E1–E9) and prints, for every experiment, the paper's qualitative claim next
// to the values measured on the synthetic workload.
//
// Usage:
//
//	cqms-bench -rows 1000 -users 20 -sessions 10
//	cqms-bench -only E3,E4
//	cqms-bench -json > results.jsonl
//
// With -json each experiment is emitted as one JSON object per line, so the
// perf/quality trajectory can be tracked across PRs by machines instead of
// prose.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	opts := experiments.DefaultOptions()
	flag.IntVar(&opts.RowsPerTable, "rows", opts.RowsPerTable, "rows per measurement table")
	flag.IntVar(&opts.Users, "users", opts.Users, "synthetic users")
	flag.IntVar(&opts.SessionsPerUser, "sessions", opts.SessionsPerUser, "sessions per user")
	flag.Int64Var(&opts.Seed, "seed", opts.Seed, "workload seed")
	var (
		only   = flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
		asJSON = flag.Bool("json", false, "emit one JSON object per experiment instead of text")
	)
	flag.Parse()

	if !*asJSON {
		fmt.Printf("CQMS experiment harness — rows/table=%d users=%d sessions/user=%d seed=%d\n",
			opts.RowsPerTable, opts.Users, opts.SessionsPerUser, opts.Seed)
	}

	start := time.Now()
	env, err := experiments.NewEnv(opts)
	if err != nil {
		log.Fatalf("building experiment environment: %v", err)
	}
	if !*asJSON {
		fmt.Printf("environment ready in %s: %d logged queries from %d users\n\n",
			time.Since(start).Round(time.Millisecond), env.Sys.Store().Count(), len(env.Trace.Users))
	}

	results, err := experiments.RunAll(env)
	if err != nil {
		log.Fatalf("running experiments: %v", err)
	}

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	enc := json.NewEncoder(os.Stdout)
	for _, res := range results {
		if len(wanted) > 0 && !wanted[res.ID] {
			continue
		}
		if *asJSON {
			if err := enc.Encode(res); err != nil {
				log.Fatalf("encoding result %s: %v", res.ID, err)
			}
			continue
		}
		fmt.Println(res.Format())
	}
	if !*asJSON {
		fmt.Printf("total harness time: %s\n", time.Since(start).Round(time.Millisecond))
	}
}
