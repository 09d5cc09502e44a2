package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/profiler"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestSubmitAllocationBudget asserts "one parse per request" by a count rather
// than a timing: an in-memory Submit of a fixed point lookup over 20-row
// tables (small, so the engine's per-row work does not drown the front end)
// allocated 342 objects at the parent commit, where the statement was parsed
// five times and printed four. The budget is three quarters of that; one
// parse, two prints and no per-statement catalog copy measure 196. A second
// parse or print of the statement anywhere on the path costs 20 to 60
// allocations and lands over the budget.
func TestSubmitAllocationBudget(t *testing.T) {
	const (
		parent = 342
		budget = parent * 3 / 4
	)
	eng := engine.New()
	if err := workload.Populate(eng, 20, 1); err != nil {
		t.Fatal(err)
	}
	c := NewWithEngine(eng, DefaultConfig())
	sub := profiler.Submission{
		User: "alice", Group: "limnology", Visibility: storage.VisibilityGroup,
		SQL: "SELECT lake, temp FROM WaterTemp WHERE id = 42",
	}
	submit := func() {
		if _, err := c.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	// Let the derived-state maps reach steady size.
	for i := 0; i < 400; i++ {
		submit()
	}
	if got := testing.AllocsPerRun(500, submit); got > budget {
		t.Errorf("Submit allocates %.0f objects per point lookup, budget %d (parent commit: %d)", got, budget, parent)
	}
}
