package experiments

import (
	"strings"
	"testing"
)

// tinyOptions keeps the experiment environment small enough for unit tests.
func tinyOptions() Options {
	return Options{RowsPerTable: 150, Users: 6, SessionsPerUser: 3, Seed: 7}
}

func tinyEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(tinyOptions())
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

func metricByName(t *testing.T, res Result, name string) float64 {
	t.Helper()
	for _, m := range res.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("%s: metric %q missing (have %+v)", res.ID, name, res.Metrics)
	return 0
}

func TestRunAllProducesEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment environment is slow")
	}
	env := tinyEnv(t)
	results, err := RunAll(env)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(results) != 9 {
		t.Fatalf("results = %d, want 9", len(results))
	}
	wantIDs := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"}
	for i, r := range results {
		if r.ID != wantIDs[i] {
			t.Errorf("result %d ID = %s, want %s", i, r.ID, wantIDs[i])
		}
		if len(r.Metrics) == 0 {
			t.Errorf("%s has no metrics", r.ID)
		}
		if r.Claim == "" || r.Title == "" {
			t.Errorf("%s missing claim/title", r.ID)
		}
		text := r.Format()
		if !strings.Contains(text, r.ID) || !strings.Contains(text, "paper claim") {
			t.Errorf("%s Format output malformed:\n%s", r.ID, text)
		}
	}

	// Spot-check the headline numbers the paper's claims depend on.
	byID := map[string]Result{}
	for _, r := range results {
		byID[r.ID] = r
	}
	// E1: the feature meta-query must have perfect recall of correlating
	// queries and near-perfect precision.
	if rec := metricByName(t, byID["E1"], "meta-query recall"); rec < 0.999 {
		t.Errorf("E1 recall = %v, want 1.0", rec)
	}
	if prec := metricByName(t, byID["E1"], "meta-query precision"); prec < 0.999 {
		t.Errorf("E1 precision = %v, want 1.0", prec)
	}
	// E2: detection should never merge across the 2h ground-truth gaps, so
	// the ratio is >= 1; purity must be high.
	if ratio := metricByName(t, byID["E2"], "detected/truth ratio"); ratio < 1.0 {
		t.Errorf("E2 detected/truth = %v, want >= 1", ratio)
	}
	if purity := metricByName(t, byID["E2"], "session purity"); purity < 0.95 {
		t.Errorf("E2 purity = %v, want >= 0.95", purity)
	}
	// E3: context-aware completion must beat (or at least match) popularity,
	// and on the hard trials it must strictly dominate.
	ctx := metricByName(t, byID["E3"], "context-aware hit rate@1")
	pop := metricByName(t, byID["E3"], "popularity-only hit rate@1")
	if ctx < pop {
		t.Errorf("E3 context-aware %v below popularity-only %v", ctx, pop)
	}
	if hard := metricByName(t, byID["E3"], "hard trials (truth != global top)"); hard > 0 {
		hardCtx := metricByName(t, byID["E3"], "context-aware hit rate@1 (hard)")
		hardPop := metricByName(t, byID["E3"], "popularity-only hit rate@1 (hard)")
		if hardCtx <= hardPop {
			t.Errorf("E3 hard-trial context %v should exceed popularity %v", hardCtx, hardPop)
		}
	}
	// E5: the adaptive policy must store far fewer rows than the fixed one.
	if r := metricByName(t, byID["E5"], "adaptive/fixed storage ratio"); r >= 1.0 {
		t.Errorf("E5 adaptive/fixed ratio = %v, want < 1", r)
	}
	// E6: the incremental miner must recover the batch rules.
	if r := metricByName(t, byID["E6"], "batch-rule recall by incremental"); r < 0.9 {
		t.Errorf("E6 incremental recall = %v, want >= 0.9", r)
	}
	// E8: the rename is repaired and the dropped column/table queries are
	// flagged.
	if n := metricByName(t, byID["E8"], "queries repaired (renames)"); n == 0 {
		t.Errorf("E8 repaired none")
	}
	if n := metricByName(t, byID["E8"], "queries flagged invalid"); n == 0 {
		t.Errorf("E8 flagged none")
	}
}

func TestResultFormat(t *testing.T) {
	r := Result{
		ID: "EX", Title: "Example", Claim: "something holds",
		Metrics: []Metric{{Name: "metric", Value: 1.5, Unit: "ms"}},
		Notes:   "a note",
	}
	out := r.Format()
	for _, want := range []string{"EX — Example", "paper claim: something holds", "metric", "1.500 ms", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestRatioHelper(t *testing.T) {
	if ratio(1, 0) != 0 {
		t.Errorf("ratio with zero denominator should be 0")
	}
	if ratio(1, 2) != 0.5 {
		t.Errorf("ratio(1,2) = %v", ratio(1, 2))
	}
	if msPer(0, 0) != 0 {
		t.Errorf("msPer with zero count should be 0")
	}
}
