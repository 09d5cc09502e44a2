package recommend

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/sql"
	"repro/internal/storage"
)

// Corrections analyses a (possibly complete) query and suggests corrections
// in the spirit of a spell checker (§2.3): unknown relation or attribute
// names are matched against the schema catalog and the names in the logged
// queries the principal may see, and the closest candidates are proposed.
func (r *Recommender) Corrections(ctx context.Context, p storage.Principal, querySQL string) []Correction {
	qc := contextOf(querySQL)
	schemas := r.catalog.Schemas()

	knownTables := make(map[string]string) // lower -> canonical
	for t := range schemas {
		knownTables[strings.ToLower(t)] = t
	}
	logged := r.stats.TableCounts(p)
	loggedTables := make([]string, 0, len(logged))
	for _, tc := range logged {
		loggedTables = append(loggedTables, tc.Table)
		if _, ok := knownTables[strings.ToLower(tc.Table)]; !ok {
			knownTables[strings.ToLower(tc.Table)] = tc.Table
		}
	}
	// A column several tables share is qualified by a table the query
	// names, else by the first table by name.
	named := make(map[string]bool, len(qc.tables))
	for _, t := range qc.tables {
		named[strings.ToLower(t)] = true
	}
	tables := make([]string, 0, len(schemas))
	for t := range schemas {
		tables = append(tables, t)
	}
	sort.Slice(tables, func(i, j int) bool {
		if ni, nj := named[strings.ToLower(tables[i])], named[strings.ToLower(tables[j])]; ni != nj {
			return ni
		}
		return tables[i] < tables[j]
	})
	knownColumns := make(map[string]string)
	for _, t := range tables {
		for _, c := range schemas[t].Columns {
			if _, ok := knownColumns[strings.ToLower(c.Name)]; !ok {
				knownColumns[strings.ToLower(c.Name)] = t + "." + c.Name
			}
		}
	}
	// The most used spelling of a bare column name wins, ties by name.
	columnCounts := r.stats.ColumnCounts(p, loggedTables)
	columns := make([]string, 0, len(columnCounts))
	for name := range columnCounts {
		columns = append(columns, name)
	}
	sort.Slice(columns, func(i, j int) bool {
		if ci, cj := columnCounts[columns[i]], columnCounts[columns[j]]; ci != cj {
			return ci > cj
		}
		return columns[i] < columns[j]
	})
	for _, name := range columns {
		bare := name
		if idx := strings.LastIndex(name, "."); idx >= 0 {
			bare = name[idx+1:]
		}
		if _, ok := knownColumns[strings.ToLower(bare)]; !ok {
			knownColumns[strings.ToLower(bare)] = name
		}
	}

	var out []Correction
	seen := make(map[string]bool)
	addCorrection := func(c Correction) {
		key := c.Kind + "|" + strings.ToLower(c.Original) + "|" + strings.ToLower(c.Suggestion)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, c)
	}
	for _, t := range qc.tables {
		if _, ok := knownTables[strings.ToLower(t)]; ok {
			continue
		}
		if best, dist := closestName(t, keysOf(knownTables)); best != "" && dist <= maxEditDistance(t) {
			addCorrection(Correction{
				Kind: "table", Original: t, Suggestion: knownTables[best],
				Reason:     fmt.Sprintf("unknown relation; %q is %d edit(s) away", knownTables[best], dist),
				Confidence: 1 - float64(dist)/float64(len(t)+1),
			})
		}
	}
	for _, c := range qc.columns {
		bare := c
		if idx := strings.LastIndex(c, "."); idx >= 0 {
			bare = c[idx+1:]
		}
		if _, ok := knownColumns[strings.ToLower(bare)]; ok {
			continue
		}
		if best, dist := closestName(bare, keysOf(knownColumns)); best != "" && dist <= maxEditDistance(bare) {
			addCorrection(Correction{
				Kind: "column", Original: c, Suggestion: knownColumns[best],
				Reason:     fmt.Sprintf("unknown attribute; %q is %d edit(s) away", knownColumns[best], dist),
				Confidence: 1 - float64(dist)/float64(len(bare)+1),
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Confidence > out[j].Confidence })
	return out
}

// EmptyResultSuggestions implements the §2.3 behaviour "if a predicate causes
// a query to return the empty set, the CQMS could suggest similar, previously
// issued predicates that return a non-empty set": for each selection
// predicate of the query, it finds logged queries with a predicate on the
// same column whose recorded result cardinality was positive, and suggests
// those predicate instances.
func (r *Recommender) EmptyResultSuggestions(ctx context.Context, p storage.Principal, querySQL string, k int) ([]Correction, error) {
	if k <= 0 {
		k = maxSuggestions
	}
	stmt, err := sql.Parse(querySQL)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("recommend: empty-result correction applies to SELECT queries")
	}
	analysis := sql.Analyze(sel)

	type candidate struct {
		text  string
		count int
	}
	var out []Correction
	view := r.store.Snapshot()
	for _, pred := range analysis.Predicates {
		if pred.IsJoin {
			continue
		}
		original := pred.Text()
		counts := make(map[string]int)
		collect := func(rec *storage.QueryRecord) bool {
			if rec.Stats.ResultRows == 0 {
				return true
			}
			for _, pr := range rec.Predicates {
				if pr.IsJoin || !strings.EqualFold(pr.Attr, pred.Attr) {
					continue
				}
				if pred.Rel != "" && pr.Rel != "" && !strings.EqualFold(pr.Rel, pred.Rel) {
					continue
				}
				text := pr.Text()
				if text == original {
					continue
				}
				counts[text]++
			}
			return true
		}
		if pred.Rel != "" {
			view.ScanByTable(ctx, pred.Rel, p, collect)
		} else {
			view.ScanAfter(ctx, 0, p, collect)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var cands []candidate
		for text, c := range counts {
			cands = append(cands, candidate{text: text, count: c})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].count != cands[j].count {
				return cands[i].count > cands[j].count
			}
			return cands[i].text < cands[j].text
		})
		if len(cands) > k {
			cands = cands[:k]
		}
		maxCount := 1
		if len(cands) > 0 {
			maxCount = cands[0].count
		}
		for _, c := range cands {
			out = append(out, Correction{
				Kind: "predicate", Original: original, Suggestion: c.text,
				Reason:     fmt.Sprintf("predicate returned non-empty results in %d logged queries", c.count),
				Confidence: float64(c.count) / float64(maxCount),
			})
		}
	}
	return out, nil
}

// keysOf returns the keys of a string map.
func keysOf(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// closestName returns the candidate with the smallest edit distance to name
// (case-insensitive) and that distance.
func closestName(name string, candidates []string) (string, int) {
	lower := strings.ToLower(name)
	best, bestDist := "", 1<<30
	for _, cand := range candidates {
		d := editDistance(lower, cand)
		if d < bestDist {
			bestDist = d
			best = cand
		}
	}
	if best == "" {
		return "", 0
	}
	return best, bestDist
}

// maxEditDistance scales the accepted distance with the identifier length,
// matching typical spell-checker behaviour.
func maxEditDistance(name string) int {
	switch {
	case len(name) <= 4:
		return 1
	case len(name) <= 8:
		return 2
	default:
		return 3
	}
}

// editDistance is the Damerau-Levenshtein (optimal string alignment)
// distance between two strings: insertions, deletions, substitutions and
// adjacent transpositions each cost one edit. Transpositions matter because
// they are the most common typo in identifier names ("tmep" for "temp").
func editDistance(a, b string) int {
	if a == b {
		return 0
	}
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	d := make([][]int, la+1)
	for i := range d {
		d[i] = make([]int, lb+1)
		d[i][0] = i
	}
	for j := 0; j <= lb; j++ {
		d[0][j] = j
	}
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d[i][j] = min3(d[i-1][j]+1, d[i][j-1]+1, d[i-1][j-1]+cost)
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if t := d[i-2][j-2] + 1; t < d[i][j] {
					d[i][j] = t
				}
			}
		}
	}
	return d[la][lb]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
