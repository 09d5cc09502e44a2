// Package metaquery implements the CQMS Meta-query Executor (Figure 4): the
// online component that answers queries about queries. It supports these
// meta-querying paradigms of §2.2 and §4.2:
//
//   - keyword and substring search over query text and annotations,
//   - query-by-feature: a user's SQL meta-query over the Figure 1 feature
//     relations, materialised for that query alone (featurerel.go), and
//     partial-query search, which keeps the logged queries referencing every
//     table and attribute a partially written query names,
//   - query-by-data: conditions on query outputs (positive/negative example
//     tuples), and
//   - kNN similarity queries used by the Assisted Interaction Mode.
//
// Each is a Query, built by the constructor of its kind and read a page at a
// time through Executor.Page (query.go). All operations enforce the storage
// layer's access-control rules.
package metaquery

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/storage"
)

// ErrNoQIDColumn is returned by SQLMetaQuery when the meta-query result does
// not include a qid column to join back to stored queries.
var ErrNoQIDColumn = errors.New("metaquery: meta-query result has no qid column")

// Match is one meta-query result: a stored query, a relevance score in
// [0, 1] and a short explanation of why it matched. The record is the
// store's shared immutable version and must be treated as read-only; use
// Record.Clone for an owned copy.
type Match struct {
	Record *storage.QueryRecord
	Score  float64
	Why    string
}

// Executor answers meta-queries over a query store.
type Executor struct {
	store     *storage.Store
	sessionOf func(*storage.QueryRecord) int64
}

// New returns an executor over the store. sessionOf answers the session of a
// record for the Queries feature relation's sessionId column; it is the
// session detector's lookup (session.Live.SessionOf), the one home of session
// membership.
func New(store *storage.Store, sessionOf func(*storage.QueryRecord) int64) *Executor {
	return &Executor{store: store, sessionOf: sessionOf}
}

// ---------------------------------------------------------------------------
// Query-by-feature: SQL meta-queries over the feature relations
// ---------------------------------------------------------------------------

// SQLMetaQuery materialises the feature relations visible to the principal
// and executes the given SQL meta-query (e.g. the query of Figure 1) against
// them. If the result contains a qid column, the corresponding stored
// queries are returned as matches alongside the raw result; otherwise the raw
// result comes with ErrNoQIDColumn. Feature is the same search as a Query.
func (x *Executor) SQLMetaQuery(ctx context.Context, p storage.Principal, metaSQL string) (*engine.Result, []Match, error) {
	res, matches, _, err := x.metaQuery(ctx, p, x.store.Snapshot(), metaSQL)
	return res, matches, err
}

// metaQuery runs a meta-query over the feature relations of the records of
// view visible to p and resolves its qid column in the same view. It also
// reports how many records its scan examined.
func (x *Executor) metaQuery(ctx context.Context, p storage.Principal, view *storage.View, metaSQL string) (*engine.Result, []Match, int, error) {
	eng, examined, err := materializeFeatureRelations(ctx, view, p, x.sessionOf)
	if err != nil {
		return nil, nil, examined, err
	}
	res, err := eng.Execute(metaSQL)
	if err != nil {
		return nil, nil, examined, fmt.Errorf("metaquery: executing meta-query: %w", err)
	}
	qidCol := -1
	for i, c := range res.Columns {
		if strings.EqualFold(c, "qid") {
			qidCol = i
			break
		}
	}
	if qidCol < 0 {
		return res, nil, examined, ErrNoQIDColumn
	}
	seen := make(map[storage.QueryID]bool)
	var matches []Match
	for _, row := range res.Rows {
		v := row[qidCol]
		if v.Type != engine.TypeInt {
			continue
		}
		id := storage.QueryID(v.Int)
		if seen[id] {
			continue
		}
		seen[id] = true
		rec, err := view.Get(id, p)
		if err != nil {
			continue
		}
		matches = append(matches, Match{Record: rec, Score: 1, Why: "feature meta-query"})
	}
	return res, matches, examined, nil
}

// ---------------------------------------------------------------------------
// Query-by-data
// ---------------------------------------------------------------------------

func sampleContains(s *storage.OutputSample, value string) bool {
	needle := strings.ToLower(value)
	for _, row := range s.Rows {
		for _, cell := range row {
			if strings.ToLower(cell) == needle {
				return true
			}
		}
	}
	return false
}
