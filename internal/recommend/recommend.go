// Package recommend implements the CQMS Assisted Interaction Mode (§2.3,
// Figure 3): context-aware query completion (tables, columns, predicates,
// joins), automated query correction (misspelled names, empty-result
// predicates), ranked similar-query recommendation with the Figure 3
// score/diff/annotation columns, and automatic tutorial generation for new
// users.
//
// The recommender reads the Query Miner's association rules, the
// visibility-aware counters of internal/stats and the Meta-query Executor's
// kNN search, so its suggestions improve as the query log grows. Every count
// it shows — popularity included — is read per principal: an admin's covers
// the whole log, anyone else's their own queries plus public ones, as every
// other stats read does.
package recommend

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/metaquery"
	"repro/internal/miner"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/storage"
)

// CompletionKind classifies a completion suggestion.
type CompletionKind int

// Completion kinds.
const (
	CompleteTable CompletionKind = iota
	CompleteColumn
	CompletePredicate
	CompleteJoin
)

// String returns a readable label.
func (k CompletionKind) String() string {
	switch k {
	case CompleteTable:
		return "table"
	case CompleteColumn:
		return "column"
	case CompletePredicate:
		return "predicate"
	case CompleteJoin:
		return "join"
	default:
		return "unknown"
	}
}

// Completion is one suggestion in the Figure 3 "Completions" drop-down.
type Completion struct {
	Kind   CompletionKind
	Text   string
	Score  float64
	Reason string
}

// Correction is one suggestion in the Figure 3 "Corrections" pane.
type Correction struct {
	Kind       string // "table", "column", "predicate"
	Original   string
	Suggestion string
	Reason     string
	Confidence float64
}

// SimilarQuery is one row of the Figure 3 "Similar Queries" pane: a score, the
// query, the diff relative to the user's query and its annotations.
type SimilarQuery struct {
	Record      *storage.QueryRecord
	Score       float64
	Diff        string
	Annotations []string
}

// The similar-query ranking combines kNN similarity with the "other desired
// properties" of §2.3 (popularity, efficient runtime, small result
// cardinality), emphasising similarity.
const (
	similarityWeight  = 0.7
	popularityWeight  = 0.15
	runtimeWeight     = 0.1
	cardinalityWeight = 0.05
)

// maxSuggestions is the cap on suggestions per category when a request names
// none.
const maxSuggestions = 5

// Config controls the recommender.
type Config struct {
	// ContextAware enables association-rule-driven suggestions; when false
	// the recommender falls back to global popularity only (the E3 ablation
	// baseline).
	ContextAware bool
}

// DefaultConfig returns the default recommender configuration.
func DefaultConfig() Config {
	return Config{ContextAware: true}
}

// Recommender produces assisted-interaction suggestions.
type Recommender struct {
	store *storage.Store
	exec  *metaquery.Executor
	// stats holds the incremental, visibility-aware aggregates the mutation
	// bus keeps current: completion, correction, the tutorial and every
	// popularity prior read O(candidates) counters from it instead of
	// scanning the log, so per-suggestion cost stays flat as the log grows.
	// It counts what a principal sees as public queries plus their own.
	stats *stats.Tracker
	// catalog is the DBMS schema catalog, read when a suggestion needs table
	// or column names the log does not yet hold.
	catalog *engine.Catalog
	// rules returns the association rules of the last mining pass (the
	// miner's Feed.Rules).
	rules func() []miner.Rule
	cfg   Config
}

// New returns a recommender over the store, its meta-query executor, the
// stats tracker attached to the store, the association-rule source and the
// engine's schema catalog.
func New(store *storage.Store, exec *metaquery.Executor, tracker *stats.Tracker, rules func() []miner.Rule, catalog *engine.Catalog, cfg Config) *Recommender {
	return &Recommender{store: store, exec: exec, stats: tracker, rules: rules, catalog: catalog, cfg: cfg}
}

// schemaColumns returns the named table's columns from the catalog, or nil
// when the DBMS has no such table.
func (r *Recommender) schemaColumns(table string) []string {
	schema, err := r.catalog.SchemaOf(table)
	if err != nil {
		return nil
	}
	return schema.ColumnNames()
}

// ---------------------------------------------------------------------------
// Context extraction from the partially written query
// ---------------------------------------------------------------------------

// queryContext describes what the user has typed so far. It is extracted
// once per request and handed to every suggester.
type queryContext struct {
	tables   []string
	columns  []string
	features []string
	// predicates holds the predicates the query already applies, in the
	// spelling SuggestPredicates proposes them.
	predicates map[string]bool
}

// contextOf prefers a full parse and falls back to the names the text
// mentions (sql.PartialNames, the reader partial-query search uses) for
// partial queries and for statements that are not SELECTs.
func contextOf(partialSQL string) queryContext {
	qc := queryContext{}
	if sel, err := sql.ParseSelect(partialSQL); err == nil {
		a := sql.Analyze(sel)
		qc.tables = a.Tables
		for _, c := range a.Columns {
			name := c.Column
			if c.Table != "" {
				name = c.Table + "." + c.Column
			}
			qc.columns = append(qc.columns, name)
		}
		qc.features = a.FeatureSet()
		qc.predicates = make(map[string]bool, len(a.Predicates))
		for _, pr := range a.Predicates {
			col := pr.Column
			if pr.Table != "" {
				col = pr.Table + "." + pr.Column
			}
			qc.predicates[col+" "+pr.Op+" "+pr.Value] = true
		}
		return qc
	}
	qc.tables, qc.columns = sql.PartialNames(partialSQL)
	for _, t := range qc.tables {
		qc.features = append(qc.features, "table:"+t)
	}
	for _, a := range qc.columns {
		qc.features = append(qc.features, "col:"+a)
	}
	return qc
}

// ---------------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------------

// SuggestTables suggests tables to add to the FROM clause of the partially
// written query. Context-aware suggestions from association rules rank above
// global popularity (the §2.3 example: given WaterSalinity, suggest WaterTemp
// over the globally more popular CityLocations).
func (r *Recommender) SuggestTables(p storage.Principal, partialSQL string, k int) []Completion {
	return r.suggestTables(p, contextOf(partialSQL), k)
}

func (r *Recommender) suggestTables(p storage.Principal, qc queryContext, k int) []Completion {
	have := make(map[string]bool)
	for _, t := range qc.tables {
		have[strings.ToLower(t)] = true
	}

	var out []Completion
	seen := make(map[string]bool)
	add := func(table string, score float64, reason string) {
		key := strings.ToLower(table)
		if have[key] || seen[key] {
			return
		}
		seen[key] = true
		out = append(out, Completion{Kind: CompleteTable, Text: table, Score: score, Reason: reason})
	}

	if r.cfg.ContextAware && len(qc.features) > 0 {
		for _, rule := range miner.TopRulesFor(r.rules(), qc.features, 0) {
			if !strings.HasPrefix(rule.Consequent, "table:") {
				continue
			}
			// Context-aware scores occupy (1, 2] so they always outrank the
			// popularity fallback below.
			add(strings.TrimPrefix(rule.Consequent, "table:"), 1+rule.Confidence,
				fmt.Sprintf("co-occurs with current tables (confidence %.0f%%)", rule.Confidence*100))
		}
	}
	// Popularity fallback over the queries the principal may see, normalised
	// to (0, 1]; the listing is sorted, so its first count is the largest.
	counts := r.stats.TableCounts(p)
	for _, tc := range counts {
		add(tc.Table, float64(tc.Count)/float64(counts[0].Count),
			fmt.Sprintf("popular table (%d queries)", tc.Count))
	}
	// Schema fallback for cold starts.
	for _, table := range r.catalog.TableNames() {
		add(table, 0.1, "table in schema")
	}
	return r.top(out, k)
}

// SuggestColumns suggests columns for the tables already referenced by the
// partial query, ranked by how often they are used in logged queries over
// those tables.
func (r *Recommender) SuggestColumns(p storage.Principal, partialSQL string, k int) []Completion {
	return r.suggestColumns(p, contextOf(partialSQL), k)
}

func (r *Recommender) suggestColumns(p storage.Principal, qc queryContext, k int) []Completion {
	have := make(map[string]bool)
	for _, c := range qc.columns {
		have[strings.ToLower(c)] = true
		if idx := strings.LastIndex(c, "."); idx >= 0 {
			have[strings.ToLower(c[idx+1:])] = true
		}
	}
	counts := r.stats.ColumnCounts(p, qc.tables)
	maxCount := maxOf(counts)
	var out []Completion
	for name, c := range counts {
		bare := name
		if idx := strings.LastIndex(name, "."); idx >= 0 {
			bare = name[idx+1:]
		}
		if have[strings.ToLower(name)] || have[strings.ToLower(bare)] {
			continue
		}
		out = append(out, Completion{
			Kind: CompleteColumn, Text: name,
			Score:  float64(c) / float64(maxCount),
			Reason: fmt.Sprintf("used in %d logged queries over these tables", c),
		})
	}
	// Schema columns as a cold-start fallback.
	for _, t := range qc.tables {
		for _, col := range r.schemaColumns(t) {
			full := t + "." + col
			if have[strings.ToLower(full)] || have[strings.ToLower(col)] {
				continue
			}
			dup := false
			for _, existing := range out {
				if strings.EqualFold(existing.Text, full) {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, Completion{Kind: CompleteColumn, Text: full, Score: 0.05, Reason: "column in schema"})
			}
		}
	}
	return r.top(out, k)
}

// SuggestPredicates suggests WHERE predicates for the partial query from the
// predicate templates most frequently applied to the referenced tables:
// concrete (non-join) predicates, with their constants, so a suggestion is
// immediately usable as in Figure 3's drop-down.
func (r *Recommender) SuggestPredicates(p storage.Principal, partialSQL string, k int) []Completion {
	return r.suggestPredicates(p, contextOf(partialSQL), k)
}

func (r *Recommender) suggestPredicates(p storage.Principal, qc queryContext, k int) []Completion {
	counts := r.stats.PredicateCounts(p, qc.tables)
	maxCount := maxOf(counts)
	var out []Completion
	for text, c := range counts {
		if qc.predicates[text] {
			continue
		}
		out = append(out, Completion{
			Kind: CompletePredicate, Text: text,
			Score:  float64(c) / float64(maxCount),
			Reason: fmt.Sprintf("used in %d logged queries", c),
		})
	}
	return r.top(out, k)
}

// SuggestJoins suggests join conditions connecting the tables referenced by
// the partial query, taken from the join predicates of logged queries
// (stats.CanonicalJoin orders the sides of an equi-join so A.x = B.x and
// B.x = A.x aggregate).
func (r *Recommender) SuggestJoins(p storage.Principal, partialSQL string, k int) []Completion {
	return r.suggestJoins(p, contextOf(partialSQL), k)
}

func (r *Recommender) suggestJoins(p storage.Principal, qc queryContext, k int) []Completion {
	if len(qc.tables) < 2 {
		return nil
	}
	counts := r.stats.JoinCounts(p, qc.tables)
	maxCount := maxOf(counts)
	var out []Completion
	for text, c := range counts {
		out = append(out, Completion{
			Kind: CompleteJoin, Text: text,
			Score:  float64(c) / float64(maxCount),
			Reason: fmt.Sprintf("join used in %d logged queries", c),
		})
	}
	return r.top(out, k)
}

// Complete merges table, column, predicate and join suggestions for the
// partial query, capped at k entries per kind. The partial's context is
// extracted once and shared by the four suggesters. They read the tracker's
// counters, the mined rules and the catalog — nothing scans the log — so
// completion takes no context: there is nothing to cancel.
func (r *Recommender) Complete(p storage.Principal, partialSQL string, k int) []Completion {
	qc := contextOf(partialSQL)
	out := r.suggestTables(p, qc, k)
	out = append(out, r.suggestColumns(p, qc, k)...)
	out = append(out, r.suggestPredicates(p, qc, k)...)
	out = append(out, r.suggestJoins(p, qc, k)...)
	return out
}

// maxOf returns the largest count, at least 1, for scoring the others
// against it into (0, 1].
func maxOf(counts map[string]int) int {
	maxCount := 1
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	return maxCount
}

// top ranks the suggestions of one kind and keeps the best k (the configured
// default when k is not positive).
func (r *Recommender) top(cs []Completion, k int) []Completion {
	if k <= 0 {
		k = maxSuggestions
	}
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].Score != cs[j].Score {
			return cs[i].Score > cs[j].Score
		}
		return cs[i].Text < cs[j].Text
	})
	if len(cs) > k {
		cs = cs[:k]
	}
	return cs
}
