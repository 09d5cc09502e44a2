package recommend

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/metaquery"
	"repro/internal/sql"
	"repro/internal/storage"
)

// SimilarQueries returns the Figure 3 similar-queries pane for the user's
// (complete or partial) query: the k most relevant logged queries, each with
// a composite score, the structural diff relative to the user's query and
// its annotations. The composite ranking combines kNN similarity with query
// popularity, runtime efficiency and result-cardinality preferences (§2.3).
func (r *Recommender) SimilarQueries(ctx context.Context, p storage.Principal, querySQL string, k int) ([]SimilarQuery, error) {
	if k <= 0 {
		k = maxSuggestions
	}
	probe, err := storage.NewRecordFromSQL(querySQL)
	if err != nil {
		// Fall back to the longest parsable prefix: partial queries are the
		// norm in assisted mode, so degrade to a feature-based search.
		return r.similarFromPartial(ctx, p, querySQL, k)
	}
	// Over-fetch neighbours, then re-rank with the composite function.
	page, err := r.exec.Page(ctx, p, metaquery.Similar(probe, 0), metaquery.Cursor{}, k*4)
	if err != nil {
		return nil, err
	}
	neighbours := page.Matches

	// Popularity prior: per-fingerprint occurrence counts visible to the
	// principal. Only the neighbours' own fingerprints are probed —
	// O(neighbours), independent of how many distinct templates the log
	// holds — and the normaliser comes from the tracker's bounded
	// top-fingerprint summary.
	fps := make([]uint64, 0, len(neighbours))
	for _, n := range neighbours {
		fps = append(fps, n.Record.Fingerprint)
	}
	popByFingerprint := r.stats.FingerprintCountsFor(p, fps)
	maxPop := max(1, r.stats.MaxFingerprintCount(p))
	for _, c := range popByFingerprint {
		maxPop = max(maxPop, c)
	}

	out := make([]SimilarQuery, 0, len(neighbours))
	for _, n := range neighbours {
		rec := n.Record
		score := similarityWeight * n.Score
		score += popularityWeight * float64(popByFingerprint[rec.Fingerprint]) / float64(maxPop)
		score += runtimeWeight * runtimeScore(rec.Stats.ExecTime)
		score += cardinalityWeight * cardinalityScore(rec.Stats.ResultRows)
		diff := sql.ComputeDiff(&probe.Analysis, &rec.Analysis)
		var anns []string
		for _, a := range rec.Annotations {
			anns = append(anns, a.Text)
		}
		out = append(out, SimilarQuery{Record: rec, Score: score, Diff: diff.Summary(), Annotations: anns})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// similarFromPartial handles unparsable partial queries by matching on the
// tables and attributes typed so far: the first k matches of the listing.
func (r *Recommender) similarFromPartial(ctx context.Context, p storage.Principal, partialSQL string, k int) ([]SimilarQuery, error) {
	q, err := metaquery.Partial(partialSQL)
	if err != nil {
		return nil, err
	}
	page, err := r.exec.Page(ctx, p, q, metaquery.Cursor{}, k)
	if err != nil {
		return nil, err
	}
	out := make([]SimilarQuery, 0, len(page.Matches))
	for _, m := range page.Matches {
		var anns []string
		for _, a := range m.Record.Annotations {
			anns = append(anns, a.Text)
		}
		out = append(out, SimilarQuery{Record: m.Record, Score: m.Score, Diff: "partial match", Annotations: anns})
	}
	return out, nil
}

// runtimeScore rewards fast queries: 1 at 0ms decaying towards 0 for slow
// queries.
func runtimeScore(d time.Duration) float64 {
	ms := float64(d.Milliseconds())
	return 1 / (1 + ms/100)
}

// cardinalityScore rewards small result sets.
func cardinalityScore(rows int) float64 {
	return 1 / (1 + float64(rows)/1000)
}

// ---------------------------------------------------------------------------
// Tutorial generation (§2.3)
// ---------------------------------------------------------------------------

// TutorialStep introduces one relation by its schema (as observed in the
// log) and the most popular logged queries over it.
type TutorialStep struct {
	Table          string
	Columns        []string
	PopularQueries []*storage.QueryRecord
	Annotations    []string
}

// Tutorial generates a data-set tutorial for new users by introducing each
// relation with the most popular queries that include it (§2.3: "the system
// could introduce each relation and its schema by showing the user the most
// popular queries that include the relation"). The relations are those of the
// logged queries the principal may see, most referenced first.
func (r *Recommender) Tutorial(ctx context.Context, p storage.Principal, queriesPerTable int) []TutorialStep {
	if queriesPerTable <= 0 {
		queriesPerTable = 3
	}
	view := r.store.Snapshot()
	var steps []TutorialStep
	for _, tc := range r.stats.TableCounts(p) {
		if ctx.Err() != nil {
			return nil
		}
		table := tc.Table
		var records []*storage.QueryRecord
		view.ScanByTable(ctx, table, p, func(rec *storage.QueryRecord) bool {
			records = append(records, rec)
			return true
		})
		if len(records) == 0 {
			continue
		}
		// Popularity of individual queries: identical templates count as one
		// query with higher weight.
		byTemplate := make(map[uint64][]*storage.QueryRecord)
		for _, rec := range records {
			byTemplate[rec.Fingerprint] = append(byTemplate[rec.Fingerprint], rec)
		}
		type ranked struct {
			rec   *storage.QueryRecord
			count int
		}
		var rankedQueries []ranked
		for _, group := range byTemplate {
			rankedQueries = append(rankedQueries, ranked{rec: group[0], count: len(group)})
		}
		sort.Slice(rankedQueries, func(i, j int) bool {
			if rankedQueries[i].count != rankedQueries[j].count {
				return rankedQueries[i].count > rankedQueries[j].count
			}
			return rankedQueries[i].rec.ID < rankedQueries[j].rec.ID
		})
		step := TutorialStep{Table: table}
		if cols := r.schemaColumns(table); cols != nil {
			step.Columns = cols
		} else {
			seen := map[string]bool{}
			for _, rec := range records {
				for _, a := range rec.Attributes {
					if strings.EqualFold(a.Rel, table) && !seen[a.Attr] {
						seen[a.Attr] = true
						step.Columns = append(step.Columns, a.Attr)
					}
				}
			}
			sort.Strings(step.Columns)
		}
		for i, rq := range rankedQueries {
			if i >= queriesPerTable {
				break
			}
			step.PopularQueries = append(step.PopularQueries, rq.rec)
			for _, a := range rq.rec.Annotations {
				step.Annotations = append(step.Annotations, a.Text)
			}
		}
		steps = append(steps, step)
	}
	return steps
}

// ---------------------------------------------------------------------------
// Figure 3 rendering
// ---------------------------------------------------------------------------

// RenderAssistPane renders the assisted-interaction pane of Figure 3 as text:
// the completion suggestions followed by the similar-queries table with
// Score, Query, Diff and Annotations columns.
func RenderAssistPane(completions []Completion, similar []SimilarQuery) string {
	var sb strings.Builder
	sb.WriteString("Suggest:\n")
	if len(completions) == 0 {
		sb.WriteString("  (no suggestions)\n")
	}
	for _, c := range completions {
		fmt.Fprintf(&sb, "  [%-9s] %-45s %s\n", c.Kind, c.Text, c.Reason)
	}
	sb.WriteString("Similar Queries\n")
	fmt.Fprintf(&sb, "  %-7s| %-50s| %-20s| %s\n", "Score", "Query", "Diff", "Annotations")
	for _, s := range similar {
		text := s.Record.Canonical
		if len(text) > 48 {
			text = text[:45] + "..."
		}
		ann := strings.Join(s.Annotations, "; ")
		if len(ann) > 40 {
			ann = ann[:37] + "..."
		}
		fmt.Fprintf(&sb, "  [%3.0f%%] | %-50s| %-20s| %s\n", s.Score*100, text, s.Diff, ann)
	}
	return sb.String()
}

// RenderTutorial renders the generated tutorial as readable text.
func RenderTutorial(steps []TutorialStep) string {
	var sb strings.Builder
	sb.WriteString("Data set tutorial (generated from the query log)\n")
	for i, step := range steps {
		fmt.Fprintf(&sb, "\n%d. Relation %s\n", i+1, step.Table)
		if len(step.Columns) > 0 {
			fmt.Fprintf(&sb, "   columns: %s\n", strings.Join(step.Columns, ", "))
		}
		for _, q := range step.PopularQueries {
			fmt.Fprintf(&sb, "   example: %s\n", q.Canonical)
		}
		for _, a := range step.Annotations {
			fmt.Fprintf(&sb, "   note:    %s\n", a)
		}
	}
	return sb.String()
}
