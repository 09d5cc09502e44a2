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

// Popularity counts how often an item (a table, a column, a predicate
// template) occurs across the visible log; the recommender uses these as
// priors.
type Popularity struct {
	Item  string
	Count int
}

// Result is the output of one background mining pass, consumed by the
// recommender and the Meta-query Executor.
type Result struct {
	// Rules are the association rules over query features, as the Feed
	// derived them for the pass.
	Rules []Rule
	// TablePopularity, ColumnPopularity and PredicatePopularity are global
	// occurrence counts.
	TablePopularity     []Popularity
	ColumnPopularity    []Popularity
	PredicatePopularity []Popularity
	// TransactionCount is the number of queries mined.
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

// Run performs a background mining pass over every query in the store (admin
// view): popularity counts. The association rules are not mined here — the
// Feed keeps them current as the log changes — so the caller passes the
// feed's rules in (Feed.Refresh) and Run installs them.
func Run(store *storage.Store, rules []Rule) *Result {
	records := store.Snapshot().Records(storage.Principal{Admin: true})
	res := &Result{Rules: rules, TransactionCount: len(records)}
	res.TablePopularity, res.ColumnPopularity, res.PredicatePopularity = popularityCounts(records)
	return res
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

// popularityCounts computes table, column and predicate-template occurrence
// counts across the log.
func popularityCounts(records []*storage.QueryRecord) (tables, columns, predicates []Popularity) {
	tableCounts := make(map[string]int)
	colCounts := make(map[string]int)
	predCounts := make(map[string]int)
	for _, r := range records {
		seenT := make(map[string]bool)
		for _, t := range r.Tables {
			if !seenT[t] {
				seenT[t] = true
				tableCounts[t]++
			}
		}
		seenC := make(map[string]bool)
		for _, a := range r.Attributes {
			name := a.Attr
			if a.Rel != "" {
				name = a.Rel + "." + a.Attr
			}
			if !seenC[name] {
				seenC[name] = true
				colCounts[name]++
			}
		}
		seenP := make(map[string]bool)
		for _, p := range r.Predicates {
			key := predicateTemplate(p)
			if !seenP[key] {
				seenP[key] = true
				predCounts[key]++
			}
		}
	}
	return toPopularity(tableCounts), toPopularity(colCounts), toPopularity(predCounts)
}

// predicateTemplate renders a stored predicate with its constant masked.
func predicateTemplate(p storage.PredicateRow) string {
	col := p.Attr
	if p.Rel != "" {
		col = p.Rel + "." + p.Attr
	}
	if p.IsJoin {
		right := p.RightAttr
		if p.RightRel != "" {
			right = p.RightRel + "." + p.RightAttr
		}
		return col + " " + p.Op + " " + right
	}
	return col + " " + p.Op + " ?"
}

func toPopularity(counts map[string]int) []Popularity {
	out := make([]Popularity, 0, len(counts))
	for item, c := range counts {
		out = append(out, Popularity{Item: item, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Item < out[j].Item
	})
	return out
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
