package metaquery

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/storage"
)

// Keyword and substring search are served from the store's search index (the
// dictionary of distinct query shapes narrowed by trigrams; see
// storage.SelectTexts): a page costs the matching shapes plus the records it
// returns, not the log.

// textQuery is what distinguishes one kind of text search from another.
type textQuery struct {
	// needles are the lower-cased strings matchText requires a shape to
	// contain; the index narrows the dictionary by their trigrams.
	needles []string
	// matchText decides a shape, and with it every record of that shape
	// that carries no annotation; such records score base.
	matchText func(text, canonical string) bool
	base      float64
	// scoreAnnotated decides one annotated record; its score is at least
	// base.
	scoreAnnotated func(rec *storage.QueryRecord) (score float64, ok bool)
	why            string
}

// textPage is Page's body for the text kinds: the listing's matches after
// cur, at most limit of them (limit <= 0: all), and the records it loaded.
func (x *Executor) textPage(ctx context.Context, p storage.Principal, q textQuery, cur Cursor, limit int) ([]Match, int) {
	sel := x.store.SelectTexts(q.needles, q.matchText)

	// Annotated records are few and carry per-record text: verify each one.
	// Those an annotation lifts above base lead the listing; the rest fall in
	// with the text-only matches by ID.
	var boosted []Match
	var level []*storage.QueryRecord
	sel.ScanAnnotated(cur.High, p, storage.ScanWithContext(ctx, func(rec *storage.QueryRecord) bool {
		switch score, ok := q.scoreAnnotated(rec); {
		case !ok:
		case score > q.base:
			boosted = append(boosted, Match{Record: rec, Score: score, Why: q.why})
		default:
			level = append(level, rec)
		}
		return true
	}))
	sortMatches(boosted)

	out := make([]Match, 0, max(limit, 0))
	full := func() bool { return limit > 0 && len(out) >= limit }
	for _, m := range boosted {
		if full() {
			break
		}
		if cur.follows(m) {
			out = append(out, m)
		}
	}
	// Everything left scores base, in ID order.
	if after, done := cur.resume(q.base); !full() && !done {
		sel.Scan(after, cur.High, level, p, storage.ScanWithContext(ctx, func(rec *storage.QueryRecord) bool {
			out = append(out, Match{Record: rec, Score: q.base, Why: q.why})
			return !full()
		}))
	}
	return out, sel.Loaded()
}

// keywordBase is the score of a keyword match no annotation contributed to.
const keywordBase = 0.8

// Keywords searches for the visible queries whose text or annotations contain
// every given keyword (case-insensitive substrings, not tokens). The score is
// the fraction of matched keywords weighted towards annotation hits. No
// keyword, or an empty one, is ErrEmptyQuery.
func Keywords(keywords ...string) (Query, error) {
	if len(keywords) == 0 || slices.Contains(keywords, "") {
		return Query{}, fmt.Errorf("%w: keywords must hold at least one keyword and no empty string", ErrEmptyQuery)
	}
	lowered := make([]string, len(keywords))
	for i, k := range keywords {
		lowered[i] = strings.ToLower(k)
	}
	return Query{kind: "keyword", text: textQuery{
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
	}}, nil
}

// Substring searches for the visible queries whose canonical or raw text
// contains substr (case-insensitive), in ID order. A substring of nothing but
// white space is ErrEmptyQuery.
func Substring(substr string) (Query, error) {
	if strings.TrimSpace(substr) == "" {
		return Query{}, fmt.Errorf("%w: substring is required", ErrEmptyQuery)
	}
	needle := strings.ToLower(substr)
	matchText := func(text, canonical string) bool {
		return strings.Contains(canonical, needle) || strings.Contains(text, needle)
	}
	return Query{kind: "substring", text: textQuery{
		needles:   []string{needle},
		matchText: matchText,
		base:      1,
		scoreAnnotated: func(rec *storage.QueryRecord) (float64, bool) {
			return 1, matchText(rec.LowerText(), rec.LowerCanonical())
		},
		why: "substring: " + substr,
	}}, nil
}
