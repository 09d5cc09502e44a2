package miner

import "sort"

// Result is what one mining pass hands its caller: the association rules the
// Feed derived and the feature transactions it derived them from, read from
// one snapshot of the feed's multiset.
type Result struct {
	Rules []Rule
	// TransactionCount is how many records with a non-empty feature set the
	// rules were derived over.
	TransactionCount int
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
