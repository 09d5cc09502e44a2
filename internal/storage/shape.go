package storage

import (
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/sql"
)

// QueryShape is everything a query's text determines: the text itself, its
// canonical and template forms with their fingerprints, and the syntactic
// features of Figure 1. The paper's premise is that a query is debugged once
// and re-run many times, so the store keeps one shape per distinct text and
// every stored record of that text points at it, the way a content-addressed
// store keeps one blob however many commits reference it. A record embeds its
// shape, so rec.Text and rec.Tables read as the record's own fields. A stored
// shape is also the unit the store's secondary indexes post (textindex.go):
// it holds the IDs of its records, and the search and by-table indexes map
// their keys to shapes, indexing each distinct query once.
//
// A shape is immutable once a store holds it: records share it, and writing
// through one would change every record of the text. Give a record a new
// shape instead, or Clone it.
type QueryShape struct {
	Text        string
	Canonical   string
	Template    string
	Fingerprint uint64
	ExactHash   uint64

	// Syntactic features (Figure 1 relations).
	Tables     []string
	Attributes []AttributeRow
	Predicates []PredicateRow
	Aggregates []string
	GroupBy    []string
	Features   []string // flat feature set used by the miner

	// What the store derives once per shape: set before the shape is
	// interned, and never changed after but for ids and derived, which
	// index.mu guards. prepare lower-cases the keys of a new shape; interning
	// numbers it (dict.go). Trigram and table postings are kept in ascending
	// number so that intersecting them is a merge.
	text, canonical string   // lower-cased Text and Canonical: the search keys
	tables          []string // lower-cased Tables: the byTable keys
	numbered
	// ids holds the ascending IDs of the stored records pointing at the
	// shape: a copy-on-write bucket (appended in place, rebuilt on removal)
	// whose header index.mu guards. Its length is the reference count: the
	// shape leaves the dictionary with its last record.
	ids     []QueryID
	derived bool // equal to what ShapeOf derives from Text in this process

	nested atomic.Int32 // nestedUnknown until Nested first parses Text
}

// Values of QueryShape.nested.
const (
	nestedUnknown = iota
	nestedNo
	nestedYes
)

// newShape derives the shape of a parsed statement: canonical form and
// template are printed once each, both fingerprints are hashed from those two
// strings, and a SELECT's syntactic features come from one analysis of the
// tree. text is the statement as the user wrote it.
func newShape(stmt sql.Statement, text string) *QueryShape {
	sh := &QueryShape{Text: text, Canonical: stmt.SQL(), Template: sql.Template(stmt)}
	sh.setFingerprints()
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return sh
	}
	a := sql.Analyze(sel)
	sh.Tables = a.Tables
	for _, c := range a.Columns {
		sh.Attributes = append(sh.Attributes, AttributeRow{Attr: c.Column, Rel: c.Table, Clause: c.Clause})
	}
	for _, p := range a.Predicates {
		sh.Predicates = append(sh.Predicates, PredicateRow{
			Attr: p.Column, Rel: p.Table, Op: p.Op, Const: p.Value,
			IsJoin: p.IsJoin, RightRel: p.RightTab, RightAttr: p.RightCol,
		})
	}
	sh.Aggregates = a.Aggregates
	sh.GroupBy = a.GroupByColumns
	sh.Features = a.FeatureSet()
	return sh
}

// setFingerprints derives both hashes from the two strings already in hand:
// Fingerprint is 64-bit FNV-1a over the upper-cased template (queries that
// are structurally identical up to constants share it), ExactHash over the
// canonical form (constants included; exact-duplicate detection).
func (sh *QueryShape) setFingerprints() {
	sh.Fingerprint = fnv1a(strings.ToUpper(sh.Template))
	sh.ExactHash = fnv1a(sh.Canonical)
}

// values returns a new shape holding the same values, sharing their slices,
// with nothing a store derived.
func (sh *QueryShape) values() *QueryShape {
	return &QueryShape{
		Text: sh.Text, Canonical: sh.Canonical, Template: sh.Template,
		Fingerprint: sh.Fingerprint, ExactHash: sh.ExactHash,
		Tables: sh.Tables, Attributes: sh.Attributes, Predicates: sh.Predicates,
		Aggregates: sh.Aggregates, GroupBy: sh.GroupBy, Features: sh.Features,
	}
}

// clone returns a deep copy the caller may write to.
func (sh *QueryShape) clone() *QueryShape {
	out := sh.values()
	out.Tables = append([]string(nil), sh.Tables...)
	out.Attributes = append([]AttributeRow(nil), sh.Attributes...)
	out.Predicates = append([]PredicateRow(nil), sh.Predicates...)
	out.Aggregates = append([]string(nil), sh.Aggregates...)
	out.GroupBy = append([]string(nil), sh.GroupBy...)
	out.Features = append([]string(nil), sh.Features...)
	return out
}

// same reports whether two shapes hold equal values. A nil slice and an
// empty one differ, as they do on disk, so adopting a shape never changes a
// record's value.
func (sh *QueryShape) same(o *QueryShape) bool {
	return sh == o || sh.Text == o.Text && sh.Canonical == o.Canonical && sh.Template == o.Template &&
		sh.Fingerprint == o.Fingerprint && sh.ExactHash == o.ExactHash &&
		sameSlice(sh.Tables, o.Tables) && sameSlice(sh.Attributes, o.Attributes) &&
		sameSlice(sh.Predicates, o.Predicates) && sameSlice(sh.Aggregates, o.Aggregates) &&
		sameSlice(sh.GroupBy, o.GroupBy) && sameSlice(sh.Features, o.Features)
}

// key is the shape's exact text.
func (sh *QueryShape) key() string { return sh.Text }

func sameSlice[E comparable](a, b []E) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// prepare lower-cases the index keys of a shape no store has indexed yet, so
// that interning it under the commit lock is pure map work. The live write
// paths call it before taking the lock.
func (sh *QueryShape) prepare() {
	if sh.text != "" {
		return
	}
	if len(sh.Tables) > 0 {
		sh.tables = make([]string, len(sh.Tables))
		for i, t := range sh.Tables {
			sh.tables[i] = strings.ToLower(t)
		}
	}
	sh.text, sh.canonical = strings.ToLower(sh.Text), strings.ToLower(sh.Canonical)
}

// LowerText returns the lower-cased query text, computed once per shape by
// the store that holds it. A shape no store has indexed lowers on the fly.
func (sh *QueryShape) LowerText() string {
	if sh.text == "" {
		return strings.ToLower(sh.Text)
	}
	return sh.text
}

// LowerCanonical returns the lower-cased canonical text; see LowerText.
func (sh *QueryShape) LowerCanonical() string {
	if sh.canonical == "" {
		return strings.ToLower(sh.Canonical)
	}
	return sh.canonical
}

// Nested reports whether the query is a SELECT with a sub-query. The text is
// parsed the first time a shape is asked, and never on restore; text that
// does not parse is not nested.
func (sh *QueryShape) Nested() bool {
	n := sh.nested.Load()
	if n == nestedUnknown {
		stmt, err := sql.Parse(sh.Text)
		sel, ok := stmt.(*sql.SelectStmt)
		if n = nestedNo; err == nil && ok && len(sql.Subqueries(sel)) > 0 {
			n = nestedYes
		}
		sh.nested.Store(n) // two first readers store the same answer
	}
	return n == nestedYes
}

// Analysis reconstructs a sql.Analysis from the stored feature rows, so that
// components which operate on analyses (diffing, similarity) do not need to
// re-parse the query text.
func (sh *QueryShape) Analysis() *sql.Analysis {
	a := &sql.Analysis{Aliases: map[string]string{}}
	a.Tables = append([]string(nil), sh.Tables...)
	for _, attr := range sh.Attributes {
		a.Columns = append(a.Columns, sql.ColumnUse{Table: attr.Rel, Column: attr.Attr, Clause: attr.Clause})
	}
	for _, p := range sh.Predicates {
		a.Predicates = append(a.Predicates, sql.PredicateFeature{
			Table: p.Rel, Column: p.Attr, Op: p.Op, Value: p.Const,
			IsJoin: p.IsJoin, RightTab: p.RightRel, RightCol: p.RightAttr,
		})
	}
	a.Aggregates = append([]string(nil), sh.Aggregates...)
	a.GroupByColumns = append([]string(nil), sh.GroupBy...)
	return a
}

// ---------------------------------------------------------------------------
// The shape dictionary
// ---------------------------------------------------------------------------

// ShapeOf returns the shape of a statement parsed from text, for a record
// about to be put: the shape the store holds for text when it is the one this
// process derives — a repeated statement then costs one dictionary lookup
// instead of printing its canonical form and template and analysing it — and
// a new one derived from stmt otherwise. The result may be shared with stored
// records and must not be written to.
func (s *Store) ShapeOf(stmt sql.Statement, text string) *QueryShape {
	ix := &s.index
	ix.mu.RLock()
	for _, sh := range ix.shapes.byKey[text] {
		if sh.derived {
			ix.mu.RUnlock()
			return sh
		}
	}
	ix.mu.RUnlock()
	sh := newShape(stmt, text)
	sh.derived = true
	// A stored shape equal to the derivation (replayed, or put by a caller
	// that derived it another way) is the one later calls find.
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if have := ix.shapes.lookup(sh); have != nil {
		have.derived = true
		return have
	}
	return sh
}

// ShapeCount returns how many distinct shapes the store holds: one per
// distinct text, unless records of one text carry different features (a log
// written by an older analyzer).
func (s *Store) ShapeCount() int {
	s.index.mu.RLock()
	defer s.index.mu.RUnlock()
	return len(s.index.shapes.byNum)
}

// share points a record about to be put at the store's shape equal to its
// own when the store holds one, and prepares the record's shape otherwise; it
// hashes a sample no store holds. It runs outside the commit lock, so that
// interning under the lock is a pointer comparison or pure map work. A shape
// found here may lose its last record before the record commits; interning
// then stores a copy.
func (s *Store) share(rec *QueryRecord) {
	if sm := rec.Sample; sm != nil && !sm.interned {
		sm.prepare()
	}
	if rec.interned {
		return
	}
	s.index.mu.RLock()
	have := s.index.shapes.lookup(rec.QueryShape)
	s.index.mu.RUnlock()
	if have == nil {
		rec.prepare()
	} else {
		rec.QueryShape = have
	}
}
