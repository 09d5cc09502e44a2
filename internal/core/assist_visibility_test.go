package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/profiler"
	"repro/internal/recommend"
	"repro/internal/storage"
)

// TestAssistantShowsOnlyWhatThePrincipalMaySee: table popularity, the names
// corrections match against and the tutorial's relations are read from the
// principal's stats counters. Mallory's private queries over FieldNotes — a
// table only the log names — and over WaterTemp leave no name and no count in
// what eve is offered, while the admin's answers carry both. A core restarted
// on its data directory (snapshot plus WAL tail, no mining pass) suggests
// exactly what the freshly mined one did.
func TestAssistantShowsOnlyWhatThePrincipalMaySee(t *testing.T) {
	dir := t.TempDir()
	c := openDurable(t, dir)
	logQuery := func(user string, vis storage.Visibility, q string) {
		t.Helper()
		if _, err := c.Submit(profiler.Submission{User: user, Visibility: vis, SQL: q}); err != nil {
			t.Fatalf("Submit(%q): %v", q, err)
		}
	}
	for i := 0; i < 3; i++ {
		logQuery("alice", storage.VisibilityPublic, "SELECT WaterTemp.lake FROM WaterTemp WHERE WaterTemp.temp < 15")
	}
	for i := 0; i < 5; i++ {
		logQuery("mallory", storage.VisibilityPrivate, "SELECT FieldNotes.observer FROM FieldNotes WHERE FieldNotes.observer = 'm'")
	}
	if _, _, _, err := c.Durability().Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// The tail a restart replays on top of the snapshot.
	for i := 0; i < 2; i++ {
		logQuery("mallory", storage.VisibilityPrivate, "SELECT WaterTemp.temp FROM WaterTemp")
	}
	c.RunMiner()

	ctx := context.Background()
	eve := storage.Principal{User: "eve"}
	mallory := storage.Principal{User: "mallory"}
	names := func(s string) bool {
		s = strings.ToLower(s)
		return strings.Contains(s, "fieldnote") || strings.Contains(s, "observer")
	}
	reasons := func(cs []recommend.Completion) map[string]string {
		out := make(map[string]string)
		for _, comp := range cs {
			if comp.Kind == recommend.CompleteTable {
				out[comp.Text] = comp.Reason
			}
		}
		return out
	}

	// Table popularity: eve counts alice's three public queries only.
	tables, err := c.SuggestTables(ctx, eve, "SELECT ", 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := reasons(tables); got["WaterTemp"] != "popular table (3 queries)" || got["FieldNotes"] != "" {
		t.Errorf("eve's table suggestions: %+v", tables)
	}
	tables, err = c.SuggestTables(ctx, admin, "SELECT ", 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := reasons(tables); got["WaterTemp"] != "popular table (5 queries)" || got["FieldNotes"] != "popular table (5 queries)" {
		t.Errorf("admin's table suggestions: %+v", tables)
	}

	// Completion over mallory's table: nothing for eve, its column for the
	// admin.
	for _, p := range []storage.Principal{eve, admin} {
		for _, partial := range []string{"SELECT ", "SELECT * FROM FieldNotes WHERE "} {
			comps, err := c.Complete(ctx, p, partial, 50)
			if err != nil {
				t.Fatal(err)
			}
			named := false
			for _, comp := range comps {
				named = named || names(comp.Text) || names(comp.Reason)
			}
			if named != p.Admin {
				t.Errorf("Complete(%+v, %q) names mallory's table: %v, want %v: %+v", p, partial, named, p.Admin, comps)
			}
		}
	}

	// Corrections match misspellings against the names the principal may see.
	for _, p := range []storage.Principal{eve, admin} {
		corr, err := c.Corrections(ctx, p, "SELECT obsrever FROM FieldNote")
		if err != nil {
			t.Fatal(err)
		}
		fixes := map[string]string{}
		for _, fix := range corr {
			if names(fix.Suggestion) || names(fix.Reason) {
				fixes[fix.Kind] = fix.Suggestion
			}
		}
		want := map[string]string{}
		if p.Admin {
			want = map[string]string{"table": "FieldNotes", "column": "FieldNotes.observer"}
		}
		if !reflect.DeepEqual(fixes, want) {
			t.Errorf("Corrections(%+v) naming mallory's table = %v, want %v (all: %+v)", p, fixes, want, corr)
		}
	}

	// The tutorial introduces the relations of the queries the principal may
	// see, with examples from those queries only.
	for _, p := range []storage.Principal{eve, admin} {
		steps, err := c.Tutorial(ctx, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		introduced := false
		for _, step := range steps {
			introduced = introduced || names(step.Table)
			for _, q := range step.PopularQueries {
				if !p.Admin && q.User == "mallory" {
					t.Errorf("eve's tutorial shows mallory's query %d", q.ID)
				}
			}
		}
		if introduced != p.Admin {
			t.Errorf("Tutorial(%+v) introduces FieldNotes: %v, want %v", p, introduced, p.Admin)
		}
	}

	// A restarted core answers as the freshly mined one does.
	answers := func(c *CQMS) (out [][]recommend.Completion) {
		for _, p := range []storage.Principal{admin, eve, mallory} {
			for _, partial := range []string{"SELECT ", "SELECT * FROM WaterTemp", "SELECT * FROM FieldNotes WHERE "} {
				tables, err := c.SuggestTables(ctx, p, partial, 50)
				if err != nil {
					t.Fatal(err)
				}
				all, err := c.Complete(ctx, p, partial, 50)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, tables, all)
			}
		}
		return out
	}
	want := answers(c)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c2 := openDurable(t, dir)
	defer c2.Close()
	if info := c2.Recovery(); info == nil || info.SnapshotSeq == 0 || info.Replayed == 0 {
		t.Fatalf("recovery = %+v, want a snapshot plus a tail replay", info)
	}
	if passes := c2.Metrics().Counter("cqms_miner_passes_total", "").Value(); passes != 0 {
		t.Fatalf("the restarted core ran %d mining passes, want none", passes)
	}
	if got := answers(c2); !reflect.DeepEqual(got, want) {
		t.Errorf("restarted core suggests otherwise\n got: %+v\nwant: %+v", got, want)
	}
}
