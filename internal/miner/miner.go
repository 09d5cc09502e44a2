package miner

import (
	"sort"
	"strings"

	"repro/internal/storage"
)

// EditPattern is a frequently occurring query modification mined from
// session edges (§4.3: "by mining common edit patterns, the CQMS could
// provide better completion or correction suggestions").
type EditPattern struct {
	// Pattern is one diff entry with constants removed, e.g.
	// "+pred WaterTemp.temp < ?" or "+table WaterSalinity".
	Pattern string
	Count   int
}

// Result is what one mining pass hands its caller: the association rules the
// Feed derived and the feature transactions it derived them from, read from
// one snapshot of the feed's multiset.
type Result struct {
	Rules []Rule
	// TransactionCount is how many records with a non-empty feature set the
	// rules were derived over.
	TransactionCount int
}

// Config controls a mining pass.
type Config struct {
	Assoc AssocConfig
}

// DefaultConfig returns mining parameters suitable for a few thousand logged
// queries.
func DefaultConfig() Config {
	return Config{Assoc: DefaultAssocConfig()}
}

// MineEditPatterns counts constant-masked diff entries across session edges
// and returns those occurring at least minCount times, most frequent first.
// It is a pure function of the edges it is given: the mining pass does not
// run it, a caller feeds it the labelled edges of detected sessions.
func MineEditPatterns(edges []storage.SessionEdge, minCount int) []EditPattern {
	counts := make(map[string]int)
	for _, e := range edges {
		if e.Diff == "" || e.Diff == "none" {
			continue
		}
		for _, part := range strings.Split(e.Diff, ", ") {
			pattern := maskDiffConstant(part)
			counts[pattern]++
		}
	}
	var out []EditPattern
	for p, c := range counts {
		if c >= minCount {
			out = append(out, EditPattern{Pattern: p, Count: c})
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
	kind := fields[0]
	switch kind {
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

// TopRulesFor returns the rules whose antecedent is satisfied by (a subset
// of) the given feature set, most confident first, limited to max entries.
// The recommender calls this with the features of the partially written
// query.
func TopRulesFor(rules []Rule, features []string, max int) []Rule {
	have := make(map[string]bool, len(features))
	for _, f := range features {
		have[f] = true
	}
	var out []Rule
	for _, r := range rules {
		// Skip rules whose consequent the user already has.
		if have[r.Consequent] {
			continue
		}
		satisfied := true
		for _, a := range r.Antecedent {
			if !have[a] {
				satisfied = false
				break
			}
		}
		if satisfied {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Support > out[j].Support
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}
