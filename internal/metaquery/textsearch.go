package metaquery

import (
	"context"
	"strings"

	"repro/internal/storage"
)

// Keyword and substring search are served from the store's search index (a
// dictionary of distinct texts narrowed by trigrams; see storage.SelectTexts)
// and read as ranked listings in (score desc, ID asc) order. One call,
// textPage, serves a first page, a later page and a full drain: a page costs
// the matching dictionary entries plus the records it returns, not the log.

// Cursor is a position in a keyword or substring listing. High pins the
// listing's membership: only queries with ID <= High belong to it, so pages
// read at different times never pick up queries logged in between; zero pins
// at the store's current high-water mark. When Pos is set the page resumes
// strictly after the (Score, After) position; otherwise it starts the
// listing.
type Cursor struct {
	High  storage.QueryID
	After storage.QueryID
	Score float64
	Pos   bool
}

// Page is one page of a listing: the matches in listing order, the membership
// pin every later page of the same listing must carry in its Cursor, and how
// many records were loaded to produce it.
type Page struct {
	Matches  []Match
	High     storage.QueryID
	Examined int
}

// textQuery is what distinguishes one kind of text search from another.
type textQuery struct {
	// needles are the lower-cased strings matchText requires an entry to
	// contain; the index narrows the dictionary by their trigrams.
	needles []string
	// matchText decides a dictionary entry, and with it every record of that
	// text that carries no annotation; such records score base.
	matchText func(text, canonical string) bool
	base      float64
	// scoreAnnotated decides one annotated record; its score is at least
	// base.
	scoreAnnotated func(rec *storage.QueryRecord) (score float64, ok bool)
	why            string
}

// textPage returns the listing's matches after cur, at most limit of them
// (limit <= 0: all). Visibility and record contents are resolved at read
// time, like every scan.
func (x *Executor) textPage(ctx context.Context, p storage.Principal, q textQuery, cur Cursor, limit int) (Page, error) {
	if err := ctx.Err(); err != nil {
		return Page{}, err
	}
	if cur.High == 0 {
		cur.High = x.store.HighWater()
	}
	sel := x.store.SelectTexts(q.needles, q.matchText)

	// Annotated records are few and carry per-record text: verify each one.
	// Those an annotation lifts above base lead the listing; the rest fall in
	// with the text-only matches by ID.
	var boosted []Match
	var level []*storage.QueryRecord
	sel.ScanAnnotated(cur.High, p, withCtx(ctx, func(rec *storage.QueryRecord) bool {
		switch score, ok := q.scoreAnnotated(rec); {
		case !ok:
		case score > q.base:
			boosted = append(boosted, Match{Record: rec, Score: score, Why: q.why})
		default:
			level = append(level, rec)
		}
		return true
	}))
	SortMatches(boosted)

	out := make([]Match, 0, max(limit, 0))
	full := func() bool { return limit > 0 && len(out) >= limit }
	for _, m := range boosted {
		if full() {
			break
		}
		if !cur.Pos || m.Score < cur.Score || (m.Score == cur.Score && m.Record.ID > cur.After) {
			out = append(out, m)
		}
	}
	// Everything left scores base, in ID order: all of it lies behind a
	// cursor above base, none of it behind one below.
	if !full() && !(cur.Pos && cur.Score < q.base) {
		var after storage.QueryID
		if cur.Pos && cur.Score == q.base {
			after = cur.After
		}
		sel.Scan(after, cur.High, level, p, withCtx(ctx, func(rec *storage.QueryRecord) bool {
			out = append(out, Match{Record: rec, Score: q.base, Why: q.why})
			return !full()
		}))
	}
	if err := ctx.Err(); err != nil {
		return Page{}, err
	}
	return Page{Matches: out, High: cur.High, Examined: sel.Loaded()}, nil
}

// keywordBase is the score of a keyword match no annotation contributed to.
const keywordBase = 0.8

// KeywordPage returns one page of the visible queries whose text or
// annotations contain every given keyword (case-insensitive substrings, not
// tokens). The score is the fraction of matched keywords weighted towards
// annotation hits. No keywords match nothing. A cancelled context aborts the
// page and returns ctx.Err().
func (x *Executor) KeywordPage(ctx context.Context, p storage.Principal, keywords []string, cur Cursor, limit int) (Page, error) {
	if len(keywords) == 0 {
		return Page{High: cur.High}, ctx.Err()
	}
	lowered := make([]string, len(keywords))
	for i, k := range keywords {
		lowered[i] = strings.ToLower(k)
	}
	return x.textPage(ctx, p, textQuery{
		needles: lowered,
		matchText: func(text, _ string) bool {
			for _, k := range lowered {
				if !strings.Contains(text, k) {
					return false
				}
			}
			return true
		},
		base: keywordBase,
		scoreAnnotated: func(rec *storage.QueryRecord) (float64, bool) {
			text := rec.LowerText()
			var ann strings.Builder
			for _, a := range rec.Annotations {
				ann.WriteString(strings.ToLower(a.Text))
				ann.WriteString(" ")
			}
			annotationHits := 0
			for _, k := range lowered {
				inAnn := strings.Contains(ann.String(), k)
				if !inAnn && !strings.Contains(text, k) {
					return 0, false
				}
				if inAnn {
					annotationHits++
				}
			}
			return keywordBase + 0.2*float64(annotationHits)/float64(len(lowered)), true
		},
		why: "keywords: " + strings.Join(keywords, ", "),
	}, cur, limit)
}

// SubstringPage returns one page of the visible queries whose canonical or
// raw text contains the given substring (case-insensitive), in ID order.
func (x *Executor) SubstringPage(ctx context.Context, p storage.Principal, substr string, cur Cursor, limit int) (Page, error) {
	needle := strings.ToLower(substr)
	matchText := func(text, canonical string) bool {
		return strings.Contains(canonical, needle) || strings.Contains(text, needle)
	}
	return x.textPage(ctx, p, textQuery{
		needles:   []string{needle},
		matchText: matchText,
		base:      1,
		scoreAnnotated: func(rec *storage.QueryRecord) (float64, bool) {
			return 1, matchText(rec.LowerText(), rec.LowerCanonical())
		},
		why: "substring: " + substr,
	}, cur, limit)
}

// Keyword is KeywordPage read to the end from the start.
func (x *Executor) Keyword(ctx context.Context, p storage.Principal, keywords ...string) ([]Match, error) {
	page, err := x.KeywordPage(ctx, p, keywords, Cursor{}, 0)
	return page.Matches, err
}

// Substring is SubstringPage read to the end from the start.
func (x *Executor) Substring(ctx context.Context, p storage.Principal, substr string) ([]Match, error) {
	page, err := x.SubstringPage(ctx, p, substr, Cursor{}, 0)
	return page.Matches, err
}
