// Package session implements the CQMS query-session model (§2.2, §4.1 of the
// paper): it segments a user's query stream into sessions — series of similar
// queries issued with the same information goal — computes the structural
// diff between consecutive queries, and renders the session window
// visualisation of Figure 2 where nodes are queries and edges are labelled
// with the difference between consecutive queries.
package session

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/miner"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Segmentation thresholds, tuned for interactive exploratory sessions.
const (
	// maxGap is the idle time after which a new query always starts a new
	// session.
	maxGap = 30 * time.Minute
	// softGap is the idle time after which a new query starts a new session
	// unless it is similar to the previous query (the user paused to look at
	// results but is still pursuing the same goal).
	softGap = 5 * time.Minute
	// minSimilarity is the feature-set Jaccard similarity at or above which
	// two consecutive queries are considered part of the same exploration.
	minSimilarity = 0.2
)

// EdgeType classifies the relationship between two queries in a session
// (§4.1: temporal, modification or investigation edges).
type EdgeType int

// Edge types.
const (
	EdgeTemporal EdgeType = iota
	EdgeModification
	EdgeInvestigation
)

// Edge links two consecutive queries of a session: a pair of query
// identifiers, an edge type and the diff summary used as the edge label in
// the Figure 2 visualisation. Edges are computed when a graph is read; the
// store keeps none.
type Edge struct {
	From storage.QueryID
	To   storage.QueryID
	Type EdgeType
	Diff string
}

// Session is one detected query session.
type Session struct {
	ID      int64
	User    string
	Queries []*storage.QueryRecord
	Edges   []Edge
	Start   time.Time
	End     time.Time
}

// Duration returns the wall-clock span of the session.
func (s *Session) Duration() time.Duration { return s.End.Sub(s.Start) }

// Detect segments the given records (any order, any mix of users) into
// sessions, in ascending ID order. Queries of different users never share a
// session. A session's ID is the lowest query ID it holds, as the live
// detector names it.
func Detect(records []*storage.QueryRecord) []Session {
	var sessions []Session
	for user, recs := range streamsOf(records) {
		for _, part := range segment(recs) {
			sessions = append(sessions, Session{
				ID: lowestID(part), User: user, Queries: part, Edges: labelEdges(part),
				Start: part[0].IssuedAt, End: part[len(part)-1].IssuedAt,
			})
		}
	}
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID < sessions[j].ID })
	return sessions
}

// lowestID returns the lowest query ID among queries (never empty): the ID of
// the session they form.
func lowestID(queries []*storage.QueryRecord) int64 {
	id := queries[0].ID
	for _, q := range queries[1:] {
		id = min(id, q.ID)
	}
	return int64(id)
}

// streamsOf splits records (any order, any mix of users) into one
// chronologically sorted stream per user.
func streamsOf(records []*storage.QueryRecord) map[string][]*storage.QueryRecord {
	byUser := make(map[string][]*storage.QueryRecord)
	for _, r := range records {
		byUser[r.User] = append(byUser[r.User], r)
	}
	for _, recs := range byUser {
		sortChrono(recs)
	}
	return byUser
}

// sortChrono orders records chronologically, breaking IssuedAt ties by ID so
// segmentation is deterministic — batch detection and the live detector must
// walk identical orders or their session boundaries could diverge on queries
// sharing a timestamp.
func sortChrono(recs []*storage.QueryRecord) {
	sort.Slice(recs, func(i, j int) bool { return chronoLess(recs[i], recs[j]) })
}

// chronoLess is the (IssuedAt, ID) record order sortChrono sorts by.
func chronoLess(a, b *storage.QueryRecord) bool {
	if !a.IssuedAt.Equal(b.IssuedAt) {
		return a.IssuedAt.Before(b.IssuedAt)
	}
	return a.ID < b.ID
}

// boundary reports whether rec starts a new session after prev: a hard idle
// gap, or a soft gap without enough feature similarity to read as the same
// exploration.
func boundary(prev, rec *storage.QueryRecord) bool {
	gap := rec.IssuedAt.Sub(prev.IssuedAt)
	if gap > maxGap {
		return true
	}
	return gap > softGap && FeatureSimilarity(prev, rec) < minSimilarity
}

// segment cuts one user's chronologically sorted records into windows: a cut
// wherever boundary holds between two neighbours, so the result is a function
// of adjacent pairs alone. It is the single implementation of the
// segmentation rules — batch Detect and the live detector's rebuild run it,
// and the live detector's local edits re-evaluate the same boundary for the
// pairs they touch — and it computes no edge label. The windows are
// capacity-limited sub-slices of recs.
func segment(recs []*storage.QueryRecord) [][]*storage.QueryRecord {
	var windows [][]*storage.QueryRecord
	start := 0
	for i := 1; i <= len(recs); i++ {
		if i == len(recs) || boundary(recs[i-1], recs[i]) {
			windows = append(windows, recs[start:i:i])
			start = i
		}
	}
	return windows
}

// labelEdges labels every consecutive pair of one window (nil for a window
// of one query).
func labelEdges(queries []*storage.QueryRecord) []Edge {
	if len(queries) < 2 {
		return nil
	}
	edges := make([]Edge, 0, len(queries)-1)
	for i := 1; i < len(queries); i++ {
		edges = append(edges, edgeBetween(queries[i-1], queries[i]))
	}
	return edges
}

// edgeBetween builds the session edge between two consecutive queries,
// classifying it and labelling it with the structural diff.
func edgeBetween(prev, next *storage.QueryRecord) Edge {
	diff := sql.ComputeDiff(&prev.Analysis, &next.Analysis)
	etype := EdgeModification
	if diff.Empty() {
		etype = EdgeTemporal
	} else if isInvestigation(diff) {
		etype = EdgeInvestigation
	}
	return Edge{From: prev.ID, To: next.ID, Type: etype, Diff: diff.String()}
}

// isInvestigation reports whether the diff looks like the user drilling into
// why certain tuples appear: predicates only added, projection narrowed, no
// new tables.
func isInvestigation(d *sql.Diff) bool {
	addedPred, removedCol := false, false
	for _, e := range d.Entries {
		switch e.Kind {
		case sql.DiffAddTable, sql.DiffRemoveTable, sql.DiffAddColumn:
			return false
		case sql.DiffAddPredicate:
			addedPred = true
		case sql.DiffRemoveColumn:
			removedCol = true
		}
	}
	return addedPred && removedCol
}

// FeatureSimilarity is the Jaccard similarity of two queries' feature sets:
// the miner's feature-set measure, which segmentation reads.
func FeatureSimilarity(a, b *storage.QueryRecord) float64 {
	return miner.Similarity(miner.MeasureFeatures, a, b)
}

// ---------------------------------------------------------------------------
// Figure 2 rendering
// ---------------------------------------------------------------------------

// Render produces the ASCII session-window visualisation of Figure 2: one
// node per query in temporal order, with edges labelled by the diff between
// consecutive queries, followed by the full text of the final query.
func Render(s *Session) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Session %d — user %s — %d queries — %s\n",
		s.ID, s.User, len(s.Queries), s.Duration().Round(time.Second))
	if len(s.Queries) == 0 {
		return sb.String()
	}
	for i, q := range s.Queries {
		label := firstTableOrText(q)
		ts := q.IssuedAt.Format("15:04")
		if i == 0 {
			fmt.Fprintf(&sb, "  [%s] (q%d) %s\n", ts, q.ID, label)
			continue
		}
		diff := "(same)"
		if i-1 < len(s.Edges) {
			diff = s.Edges[i-1].Diff
		}
		fmt.Fprintf(&sb, "     |  %s\n", diff)
		fmt.Fprintf(&sb, "     v\n")
		fmt.Fprintf(&sb, "  [%s] (q%d) %s\n", ts, q.ID, label)
	}
	final := s.Queries[len(s.Queries)-1]
	fmt.Fprintf(&sb, "  final query: %s\n", final.Canonical)
	return sb.String()
}

// firstTableOrText returns a compact node label: the list of referenced
// tables, falling back to a prefix of the query text.
func firstTableOrText(q *storage.QueryRecord) string {
	if len(q.Tables) > 0 {
		return strings.Join(q.Tables, ", ")
	}
	text := q.Canonical
	if len(text) > 40 {
		text = text[:37] + "..."
	}
	return text
}

// Summary is the compact per-session description used by the browse mode and
// by cmd/cqmsctl when listing sessions.
type Summary struct {
	ID         int64
	User       string
	QueryCount int
	Start      time.Time
	End        time.Time
	Tables     []string
}
