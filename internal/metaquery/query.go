package metaquery

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/miner"
	"repro/internal/sql"
	"repro/internal/storage"
)

// ErrEmptyQuery refuses a search with nothing to look for — no keyword, an
// empty keyword or substring, a query-by-data search with neither an included
// nor an excluded value — each of which would list the whole visible log.
var ErrEmptyQuery = errors.New("metaquery: empty query")

// Kinds names every kind of Query, as Query.Kind reports it. They are also
// the names of the HTTP search routes.
var Kinds = []string{"keyword", "substring", "metaquery", "partial", "bydata", "similar"}

// Query is one search of the query log. Build it with the constructor of its
// kind — Keywords, Substring, Feature, Partial, ByData, Similar —
// which holds the kind's input rule, and read it with Executor.Page. Which of
// text, filter and rank is set selects the body that reads it:
//
//   - text: the search-index body of keyword and substring search;
//   - filter: the kinds whose every match scores 1, streamed from the
//     cursor in ID order until the page is full;
//   - rank: the scored kinds, whose candidates are all scored and sorted
//     once per page.
type Query struct {
	kind   string
	text   textQuery
	filter func(rec *storage.QueryRecord) (why string, ok bool)
	// rank returns every match among the records of view, in no order, and
	// how many records it examined.
	rank func(ctx context.Context, x *Executor, p storage.Principal, view *storage.View) ([]Match, int, error)
	// k > 0 caps the whole listing, across pages, at k matches.
	k int
}

// Kind names the query's kind; see Kinds.
func (q Query) Kind() string { return q.kind }

// Feature is query-by-feature: the SQL meta-query (e.g. the query of Figure
// 1) run over the feature relations of the visible log, matching the queries
// its qid column names. A result without a qid column is ErrNoQIDColumn;
// SQLMetaQuery also returns the raw result.
func Feature(metaSQL string) Query {
	return Query{kind: "metaquery", rank: func(ctx context.Context, x *Executor, p storage.Principal, view *storage.View) ([]Match, int, error) {
		_, matches, examined, err := x.metaQuery(ctx, p, view, metaSQL)
		return matches, examined, err
	}}
}

// Partial is query-by-feature from a partially written query (§2.2: the CQMS
// "could automatically generate these statements from partially written
// queries"): the logged queries that reference every table and every
// attribute the text names (sql.PartialNames), compared byte for byte. That
// is what the Figure 1 join generated from the text would select from the
// DataSources and Attributes relations, read off the stored record instead.
// Text that names nothing is ErrEmptyQuery.
func Partial(partialSQL string) (Query, error) {
	tables, attrs := sql.PartialNames(partialSQL)
	if len(tables) == 0 && len(attrs) == 0 {
		return Query{}, fmt.Errorf("%w: partial query names no table or attribute", ErrEmptyQuery)
	}
	why := fmt.Sprintf("names tables %v, attributes %v", tables, attrs)
	return Query{kind: "partial", filter: func(rec *storage.QueryRecord) (string, bool) {
		for _, t := range tables {
			if !slices.Contains(rec.Tables, t) {
				return "", false
			}
		}
		for _, a := range attrs {
			if !slices.ContainsFunc(rec.Attributes, func(row sql.AttributeRow) bool { return row.Attr == a }) {
				return "", false
			}
		}
		return why, true
	}}, nil
}

// ByData is query-by-data (§2.2): the user names values that should appear
// (include) and not appear (exclude) in a query's output, and the search
// returns the logged queries whose output samples separate those examples.
// Queries without output samples never match. Naming no value at all is
// ErrEmptyQuery.
func ByData(include, exclude []string) (Query, error) {
	if len(include) == 0 && len(exclude) == 0 {
		return Query{}, fmt.Errorf("%w: include or exclude must name at least one value", ErrEmptyQuery)
	}
	why := fmt.Sprintf("output includes %v, excludes %v", include, exclude)
	return Query{kind: "bydata", filter: func(rec *storage.QueryRecord) (string, bool) {
		if rec.Sample == nil {
			return "", false
		}
		for _, want := range include {
			if !sampleContains(rec.Sample, want) {
				return "", false
			}
		}
		for _, not := range exclude {
			if sampleContains(rec.Sample, not) {
				return "", false
			}
		}
		return why, true
	}}, nil
}

// Similar is the kNN search of the Assisted Interaction Mode: the logged
// queries with a positive composite similarity to probe, most similar first.
// k > 0 caps the whole listing at the k nearest; otherwise it is uncapped.
func Similar(probe *storage.QueryRecord, k int) Query {
	w := miner.DefaultWeights()
	return Query{kind: "similar", k: max(k, 0), rank: func(ctx context.Context, _ *Executor, p storage.Principal, view *storage.View) ([]Match, int, error) {
		var out []Match
		examined := view.ScanAfter(ctx, 0, p, func(rec *storage.QueryRecord) bool {
			if score := miner.CompositeSimilarity(w, probe, rec); score > 0 {
				out = append(out, Match{Record: rec, Score: score, Why: "similar query"})
			}
			return true
		})
		return out, examined, nil
	}}
}

// Cursor is a position in a listing, which is in (score desc, ID asc) order.
// High pins the listing's membership: only queries with ID <= High belong to
// it, so pages read at different times never pick up queries logged in
// between; zero pins at the store's current high-water mark. When Pos is set
// the page resumes strictly after the (Score, After) position; otherwise it
// starts the listing. Seen counts the matches earlier pages returned, which a
// listing with a total cap (Similar's k) stops at.
type Cursor struct {
	High  storage.QueryID
	After storage.QueryID
	Score float64
	Pos   bool
	Seen  int
}

// resume says where a run of matches that all score score picks up behind the
// cursor: strictly after ID after, or nowhere (done) when the cursor lies
// behind the whole run. It is the one statement of "after the cursor".
func (c Cursor) resume(score float64) (after storage.QueryID, done bool) {
	switch {
	case !c.Pos || score < c.Score:
		return 0, false
	case score == c.Score:
		return c.After, false
	default:
		return 0, true
	}
}

// follows reports whether m lies strictly after the cursor.
func (c Cursor) follows(m Match) bool {
	after, done := c.resume(m.Score)
	return !done && m.Record.ID > after
}

// sortMatches puts matches in listing order: descending score, ties broken by
// ascending query ID.
func sortMatches(matches []Match) {
	slices.SortFunc(matches, func(a, b Match) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Record.ID, b.Record.ID)
	})
}

// Page is one page of a listing: the matches in listing order, the membership
// pin every later page of the same listing must carry in its Cursor, and how
// many records its scans examined to produce it, those the principal could
// not see included.
type Page struct {
	Matches  []Match
	High     storage.QueryID
	Examined int
}

// Page reads the page of q that follows cur: at most limit matches (limit <=
// 0: all) among the visible queries with ID <= cur.High, visibility and
// record contents resolved at read time like every scan. A cancelled context
// aborts the page and returns ctx.Err(); a zero Query is ErrEmptyQuery.
func (x *Executor) Page(ctx context.Context, p storage.Principal, q Query, cur Cursor, limit int) (Page, error) {
	if err := ctx.Err(); err != nil {
		return Page{}, err
	}
	if cur.High == 0 {
		cur.High = x.store.HighWater()
	}
	page := Page{High: cur.High}
	var err error
	switch {
	case q.text.matchText != nil:
		page.Matches, page.Examined = x.textPage(ctx, p, q.text, cur, limit)
	case q.filter != nil:
		page.Matches, page.Examined = x.filterPage(ctx, p, q.filter, cur, limit)
	case q.rank != nil:
		page.Matches, page.Examined, err = x.rankedPage(ctx, p, q, cur, limit)
	default:
		err = ErrEmptyQuery
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return Page{}, err
	}
	return page, nil
}

// filterPage is Page's body for the score-1 kinds: it streams the pinned log
// from the cursor in ID order and stops once the page is full, so a later
// page costs what the first does.
func (x *Executor) filterPage(ctx context.Context, p storage.Principal, match func(*storage.QueryRecord) (string, bool), cur Cursor, limit int) ([]Match, int) {
	after, done := cur.resume(1)
	if done {
		return nil, 0
	}
	var out []Match
	examined := x.store.SnapshotAt(cur.High).ScanAfter(ctx, after, p, func(rec *storage.QueryRecord) bool {
		if why, ok := match(rec); ok {
			out = append(out, Match{Record: rec, Score: 1, Why: why})
		}
		return limit <= 0 || len(out) < limit
	})
	return out, examined
}

// rankedPage is Page's body for the scored kinds: it scores every candidate
// of the pinned log, keeps those after the cursor, sorts them once and cuts
// the page, stopping the listing at its total cap.
func (x *Executor) rankedPage(ctx context.Context, p storage.Principal, q Query, cur Cursor, limit int) ([]Match, int, error) {
	all, examined, err := q.rank(ctx, x, p, x.store.SnapshotAt(cur.High))
	if err != nil {
		return nil, examined, err
	}
	kept := all[:0]
	for _, m := range all {
		if m.Record.ID <= cur.High && cur.follows(m) {
			kept = append(kept, m)
		}
	}
	sortMatches(kept)
	n := len(kept)
	if q.k > 0 {
		n = min(n, max(q.k-max(cur.Seen, 0), 0))
	}
	if limit > 0 {
		n = min(n, limit)
	}
	return kept[:n], examined, nil
}
