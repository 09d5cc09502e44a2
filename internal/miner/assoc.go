package miner

import (
	"sort"
	"strings"
)

// Rule is one mined association rule over query features (§4.3): "queries
// containing the antecedent features also contain the consequent feature".
// The recommender turns these into context-aware completion suggestions, e.g.
// {table:WaterSalinity} => table:WaterTemp.
type Rule struct {
	Antecedent []string
	Consequent string
	Support    float64 // fraction of transactions containing antecedent ∪ consequent
	Confidence float64 // support(antecedent ∪ consequent) / support(antecedent)
	Lift       float64 // confidence / support(consequent)
}

// Key returns a canonical identity for the rule, used to compare rule sets.
func (r Rule) Key() string {
	ant := append([]string(nil), r.Antecedent...)
	sort.Strings(ant)
	return strings.Join(ant, ",") + " => " + r.Consequent
}

// AssocConfig controls Apriori mining.
type AssocConfig struct {
	// MinSupport is the minimum fraction of transactions an itemset must
	// appear in.
	MinSupport float64
	// MinConfidence is the minimum confidence for emitted rules.
	MinConfidence float64
	// MaxItemsetSize bounds the size of mined itemsets (antecedent size is at
	// most MaxItemsetSize-1).
	MaxItemsetSize int
}

// DefaultAssocConfig returns thresholds suitable for exploratory query logs.
func DefaultAssocConfig() AssocConfig {
	return AssocConfig{MinSupport: 0.01, MinConfidence: 0.3, MaxItemsetSize: 3}
}

// itemset is a sorted, comma-joined set of items used as a map key.
func itemsetKey(items []string) string {
	s := append([]string(nil), items...)
	sort.Strings(s)
	return strings.Join(s, ",")
}

// MineAssociationRules runs Apriori over the transactions (each transaction
// is one query's feature set) and derives rules with a single-item
// consequent.
func MineAssociationRules(transactions [][]string, cfg AssocConfig) []Rule {
	counts := countItemsets(transactions, cfg)
	return rulesFromCounts(counts, len(transactions), cfg)
}

// countItemsets performs the level-wise Apriori candidate generation and
// counting, returning the support counts of all frequent itemsets up to
// MaxItemsetSize.
func countItemsets(transactions [][]string, cfg AssocConfig) map[string]int {
	n := len(transactions)
	if n == 0 {
		return map[string]int{}
	}
	minCount := int(cfg.MinSupport * float64(n))
	if minCount < 1 {
		minCount = 1
	}
	maxSize := cfg.MaxItemsetSize
	if maxSize < 2 {
		maxSize = 2
	}

	// Normalise transactions to sorted unique feature slices.
	normalized := make([][]string, n)
	for i, t := range transactions {
		seen := make(map[string]bool, len(t))
		var items []string
		for _, item := range t {
			if !seen[item] {
				seen[item] = true
				items = append(items, item)
			}
		}
		sort.Strings(items)
		normalized[i] = items
	}

	counts := make(map[string]int)

	// Level 1.
	level1 := make(map[string]int)
	for _, t := range normalized {
		for _, item := range t {
			level1[item]++
		}
	}
	var frequent [][]string
	for item, c := range level1 {
		if c >= minCount {
			counts[item] = c
			frequent = append(frequent, []string{item})
		}
	}
	sort.Slice(frequent, func(i, j int) bool { return frequent[i][0] < frequent[j][0] })

	// Levels 2..maxSize.
	prev := frequent
	for size := 2; size <= maxSize && len(prev) > 1; size++ {
		candidates := generateCandidates(prev)
		if len(candidates) == 0 {
			break
		}
		candCounts := make(map[string]int, len(candidates))
		candItems := make(map[string][]string, len(candidates))
		for _, c := range candidates {
			candItems[itemsetKey(c)] = c
		}
		for _, t := range normalized {
			tset := make(map[string]bool, len(t))
			for _, item := range t {
				tset[item] = true
			}
			for key, items := range candItems {
				contained := true
				for _, item := range items {
					if !tset[item] {
						contained = false
						break
					}
				}
				if contained {
					candCounts[key]++
				}
			}
		}
		var next [][]string
		for key, c := range candCounts {
			if c >= minCount {
				counts[key] = c
				next = append(next, candItems[key])
			}
		}
		sort.Slice(next, func(i, j int) bool { return itemsetKey(next[i]) < itemsetKey(next[j]) })
		prev = next
	}
	return counts
}

// generateCandidates joins frequent (k-1)-itemsets sharing a common prefix to
// produce k-item candidates (classic Apriori-gen, without the prune step —
// infrequent candidates are simply not counted as frequent later).
func generateCandidates(prev [][]string) [][]string {
	var out [][]string
	seen := make(map[string]bool)
	for i := 0; i < len(prev); i++ {
		for j := i + 1; j < len(prev); j++ {
			a, b := prev[i], prev[j]
			if len(a) != len(b) {
				continue
			}
			// Join when all but the last item agree.
			match := true
			for k := 0; k < len(a)-1; k++ {
				if a[k] != b[k] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			cand := append(append([]string{}, a...), b[len(b)-1])
			sort.Strings(cand)
			key := itemsetKey(cand)
			if !seen[key] {
				seen[key] = true
				out = append(out, cand)
			}
		}
	}
	return out
}

// rulesFromCounts derives single-consequent rules from itemset support
// counts, most confident first, then most supported, then by Key. A count's
// key lists its items sorted, so every antecedent split from it is sorted
// too: its key is the count to look up, and, with the consequent, the rule's
// Key — built once per rule rather than in every comparison of the sort.
func rulesFromCounts(counts map[string]int, numTransactions int, cfg AssocConfig) []Rule {
	if numTransactions == 0 {
		return nil
	}
	var rules []Rule
	var keys []string // keys[i] is rules[i].Key()
	for key, count := range counts {
		items := strings.Split(key, ",")
		if len(items) < 2 {
			continue
		}
		support := float64(count) / float64(numTransactions)
		for i, consequent := range items {
			antecedent := make([]string, 0, len(items)-1)
			antecedent = append(antecedent, items[:i]...)
			antecedent = append(antecedent, items[i+1:]...)
			antKey := strings.Join(antecedent, ",")
			antCount, ok := counts[antKey]
			if !ok || antCount == 0 {
				continue
			}
			conf := float64(count) / float64(antCount)
			if conf < cfg.MinConfidence {
				continue
			}
			consCount := counts[consequent]
			lift := 0.0
			if consCount > 0 {
				lift = conf / (float64(consCount) / float64(numTransactions))
			}
			rules = append(rules, Rule{
				Antecedent: antecedent,
				Consequent: consequent,
				Support:    support,
				Confidence: conf,
				Lift:       lift,
			})
			keys = append(keys, antKey+" => "+consequent)
		}
	}
	if len(rules) == 0 {
		return nil
	}
	// Sort positions, not the rules: a swap then moves one int.
	order := make([]int, len(rules))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := &rules[order[a]], &rules[order[b]]
		if x.Confidence != y.Confidence {
			return x.Confidence > y.Confidence
		}
		if x.Support != y.Support {
			return x.Support > y.Support
		}
		return keys[order[a]] < keys[order[b]]
	})
	out := make([]Rule, len(rules))
	for i, j := range order {
		out[i] = rules[j]
	}
	return out
}
