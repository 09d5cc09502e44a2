// Package storage implements the CQMS Query Storage (Figure 4 of the paper):
// the durable log of every query submitted through the Query Profiler, its
// extracted syntactic features (the Figure 1 feature relations Queries,
// DataSources, Attributes, Predicates), runtime statistics, output samples
// and user annotations. Sessions are derived from the log by the session
// detector (internal/session), which the store does not duplicate.
//
// The store is an in-memory structure that keeps each distinct query's text
// and features once (QueryShape), shared by every record of it. The shapes
// are what its search and by-table indexes post, each holding its records'
// IDs, and a by-user index serves history, so that the Meta-query Executor
// can answer feature and keyword searches interactively.
package storage

import "time"

// QueryID identifies a logged query.
type QueryID int64

// Visibility controls who may see a logged query (paper §2.4: access control
// rules restrict knowledge transfer to collaborating group members).
type Visibility int

// Visibility levels.
const (
	// VisibilityPrivate: only the owning user.
	VisibilityPrivate Visibility = iota
	// VisibilityGroup: the owning user's group.
	VisibilityGroup
	// VisibilityPublic: every user of the CQMS.
	VisibilityPublic
)

// String returns a readable label.
func (v Visibility) String() string {
	switch v {
	case VisibilityPrivate:
		return "private"
	case VisibilityGroup:
		return "group"
	case VisibilityPublic:
		return "public"
	default:
		return "unknown"
	}
}

// Principal identifies the user on whose behalf a meta-query or browse
// operation runs, used for access-control filtering.
type Principal struct {
	User   string
	Groups []string
	// Admin principals bypass visibility checks (System Administrative
	// Interaction Mode, §2.4).
	Admin bool
}

// MemberOf reports whether the principal belongs to the named group.
func (p Principal) MemberOf(group string) bool {
	for _, g := range p.Groups {
		if g == group {
			return true
		}
	}
	return false
}

// RuntimeStats are the runtime query features captured by the profiler
// (§4.1): execution time, result cardinality and the schema version the
// query ran against.
type RuntimeStats struct {
	ExecTime      time.Duration
	ResultRows    int
	ResultColumns int
	Error         string
	SchemaVersion int64
	ExecutedAt    time.Time
}

// OutputSample is a bounded sample of the query's result (§4.1 "Profiling
// query results"): columns plus the stringified rows the profiler's sample
// budget kept. A query re-run against unchanged data returns the same sample,
// so the store keeps one sample per distinct value and every stored record of
// it points at that one (sample.go), as records of one text share a shape.
//
// A sample is immutable once a store holds it: records share it. Give a
// record a new sample instead of writing through the one it has.
type OutputSample struct {
	Columns   []string
	Rows      [][]string
	TotalRows int
	// Truncated is true when the sample holds fewer rows than the result.
	Truncated bool

	// What the store derives, set before the sample is interned and never
	// changed after but for refs, which index.mu guards. hash is the content
	// hash the dictionary keys it by (0 until computed); refs counts the
	// stored records pointing at it: the sample leaves the dictionary with
	// its last record.
	refs uint32
	hash uint64
	numbered
}

// Annotation is a user-supplied note on a query or on a fragment of it
// (§2.1: users capture semantic information about their queries).
type Annotation struct {
	Author   string
	Text     string
	Fragment string // optional query fragment the annotation refers to
	At       time.Time
}

// QueryRecord is one logged execution of a query: its shape — text,
// canonical/template forms and the extracted feature relations, shared with
// every stored record of the same text — plus what belongs to this execution
// alone: who ran it and when, runtime statistics, an output sample,
// annotations and maintenance state.
type QueryRecord struct {
	ID QueryID
	// The store points every record of a text at one shape when it stores
	// the record (Put, replay, restore, text replacement). It is immutable:
	// to change a record's text, give it another shape (ReplaceText).
	*QueryShape

	User       string
	Group      string
	Visibility Visibility
	IssuedAt   time.Time

	// Runtime features and output sample.
	Stats  RuntimeStats
	Sample *OutputSample

	Annotations []Annotation

	// Maintenance state (§4.4).
	Valid         bool
	StatsStale    bool
	InvalidReason string
}

// Quality is the §4.4 query-quality measure in [0, 1]: valid, annotated,
// efficient queries over few tables with a clean last run score highest. It
// is a function of the record alone, so it is computed when read, never
// stored.
func (q *QueryRecord) Quality() float64 {
	score := 0.0
	if q.Valid {
		score += 0.4
	}
	if len(q.Annotations) > 0 {
		score += 0.2
	}
	if q.Stats.Error == "" {
		score += 0.1
	}
	// Efficiency: 0.2 at instant execution decaying with runtime.
	ms := float64(q.Stats.ExecTime.Milliseconds())
	score += 0.2 / (1 + ms/200)
	// Simplicity: fewer referenced tables is simpler.
	score += 0.1 / float64(1+len(q.Tables))
	return min(score, 1)
}

// shallowCopy returns a copy sharing every slice and pointer field with the
// original. The store's copy-on-write mutations start from a shallow copy and
// replace only the fields they change, so concurrent readers holding the old
// version keep a fully consistent record.
func (q *QueryRecord) shallowCopy() *QueryRecord {
	out := *q
	return &out
}

// Clone returns a copy of the record so callers can mutate the result
// without affecting the store. The sample is shared, not copied: it is
// immutable, and a caller changes a record's sample by pointing it at another.
func (q *QueryRecord) Clone() *QueryRecord {
	out := *q
	if q.QueryShape != nil {
		out.QueryShape = q.QueryShape.clone()
	}
	out.Annotations = append([]Annotation(nil), q.Annotations...)
	return &out
}

// VisibleTo reports whether the record may be shown to the principal under
// the paper's access-control requirement.
func (q *QueryRecord) VisibleTo(p Principal) bool {
	if p.Admin || q.User == p.User {
		return true
	}
	switch q.Visibility {
	case VisibilityPublic:
		return true
	case VisibilityGroup:
		return q.Group != "" && p.MemberOf(q.Group)
	default:
		return false
	}
}
