package main

import (
	"sort"
	"strings"

	"repro/internal/session"
)

// editPattern is a frequently occurring query modification mined from
// session edges (§4.3: "by mining common edit patterns, the CQMS could
// provide better completion or correction suggestions").
type editPattern struct {
	// Pattern is one diff entry with constants removed, e.g.
	// "+pred WaterTemp.temp < ?" or "+table WaterSalinity".
	Pattern string
	Count   int
}

// mineEditPatterns counts constant-masked diff entries across session edges
// and returns those occurring at least minCount times, most frequent first.
func mineEditPatterns(edges []session.Edge, minCount int) []editPattern {
	counts := make(map[string]int)
	for _, e := range edges {
		if e.Diff == "" || e.Diff == "none" {
			continue
		}
		for _, part := range strings.Split(e.Diff, ", ") {
			counts[maskDiffConstant(part)]++
		}
	}
	var out []editPattern
	for p, c := range counts {
		if c >= minCount {
			out = append(out, editPattern{Pattern: p, Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Pattern < out[j].Pattern
	})
	return out
}

// maskDiffConstant replaces the trailing constant of a predicate diff entry
// ("+pred WaterTemp.temp < 18") with '?' so occurrences with different
// constants aggregate.
func maskDiffConstant(entry string) string {
	fields := strings.Fields(entry)
	if len(fields) < 2 {
		return entry
	}
	switch fields[0] {
	case "+pred", "-pred", "~const":
		// Keep "column op" and mask the constant: the last field is the
		// constant unless the predicate is a join (contains a dot on both
		// sides of the operator, in which case keep it).
		if len(fields) >= 4 {
			last := fields[len(fields)-1]
			if !strings.Contains(last, ".") {
				fields[len(fields)-1] = "?"
			}
		}
		return strings.Join(fields, " ")
	default:
		return entry
	}
}
