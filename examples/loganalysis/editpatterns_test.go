package main

import (
	"strings"
	"testing"

	"repro/internal/session"
)

func TestMineEditPatterns(t *testing.T) {
	edges := []session.Edge{
		{From: 1, To: 2, Diff: "+pred WaterTemp.temp < 18"},
		{From: 2, To: 3, Diff: "+pred WaterTemp.temp < 22"},
		{From: 3, To: 4, Diff: "+table WaterSalinity, +pred WaterSalinity.salinity > 2"},
		{From: 4, To: 5, Diff: "+table WaterSalinity"},
		{From: 5, To: 6, Diff: "none"},
		{From: 6, To: 7, Diff: ""},
	}
	patterns := mineEditPatterns(edges, 2)
	if len(patterns) == 0 {
		t.Fatal("no patterns")
	}
	// The two "+pred WaterTemp.temp < N" edges aggregate under a masked
	// constant.
	foundPred, foundTable := false, false
	for _, p := range patterns {
		if p.Pattern == "+pred WaterTemp.temp < ?" && p.Count == 2 {
			foundPred = true
		}
		if p.Pattern == "+table WaterSalinity" && p.Count == 2 {
			foundTable = true
		}
	}
	if !foundPred {
		t.Errorf("masked predicate pattern missing: %+v", patterns)
	}
	if !foundTable {
		t.Errorf("table pattern missing: %+v", patterns)
	}
	// Patterns below the threshold are dropped.
	for _, p := range patterns {
		if p.Count < 2 {
			t.Errorf("pattern %+v below min count", p)
		}
	}
}

func TestMineEditPatternsJoinPredicatesKeepColumns(t *testing.T) {
	edges := []session.Edge{
		{From: 1, To: 2, Diff: "+pred WaterSalinity.loc_x = WaterTemp.loc_x"},
		{From: 2, To: 3, Diff: "+pred WaterSalinity.loc_x = WaterTemp.loc_x"},
	}
	patterns := mineEditPatterns(edges, 2)
	if len(patterns) != 1 {
		t.Fatalf("patterns = %+v", patterns)
	}
	if !strings.Contains(patterns[0].Pattern, "WaterTemp.loc_x") {
		t.Errorf("join predicate constant should not be masked: %q", patterns[0].Pattern)
	}
}
