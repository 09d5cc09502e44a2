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
// shape, so rec.Text and rec.Tables read as the record's own fields.
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
	// interned, and never changed after but for refs and derived, which
	// textIndex.mu guards. prepare gives a new shape an entry of its own,
	// which interning swaps for the dictionary's when it has one.
	entry    *textEntry // the search-dictionary entry: lower-cased text and canonical
	tables   []string   // lower-cased Tables: the byTable buckets
	refs     int32      // stored records pointing at the shape
	interned bool       // held by a store's dictionary, now or before
	derived  bool       // equal to what ShapeOf derives from Text in this process

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

// sameShape reports whether two shapes hold equal values. A nil slice and an
// empty one differ, as they do on disk, so adopting a shape never changes a
// record's value.
func sameShape(a, b *QueryShape) bool {
	return a == b || a.Text == b.Text && a.Canonical == b.Canonical && a.Template == b.Template &&
		a.Fingerprint == b.Fingerprint && a.ExactHash == b.ExactHash &&
		sameSlice(a.Tables, b.Tables) && sameSlice(a.Attributes, b.Attributes) &&
		sameSlice(a.Predicates, b.Predicates) && sameSlice(a.Aggregates, b.Aggregates) &&
		sameSlice(a.GroupBy, b.GroupBy) && sameSlice(a.Features, b.Features)
}

func sameSlice[E comparable](a, b []E) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// prepare lower-cases the index keys of a shape no store has indexed yet, so
// that interning it under the commit lock is pure map work. The live write
// paths call it before taking the lock.
func (sh *QueryShape) prepare() {
	if sh.entry != nil {
		return
	}
	if len(sh.Tables) > 0 {
		sh.tables = make([]string, len(sh.Tables))
		for i, t := range sh.Tables {
			sh.tables[i] = strings.ToLower(t)
		}
	}
	sh.entry = &textEntry{textKey: textKey{strings.ToLower(sh.Text), strings.ToLower(sh.Canonical)}}
}

// LowerText returns the lower-cased query text, computed once per shape by
// the store that holds it. A shape no store has indexed lowers on the fly.
func (sh *QueryShape) LowerText() string {
	if sh.entry == nil {
		return strings.ToLower(sh.Text)
	}
	return sh.entry.text
}

// LowerCanonical returns the lower-cased canonical text; see LowerText.
func (sh *QueryShape) LowerCanonical() string {
	if sh.entry == nil {
		return strings.ToLower(sh.Canonical)
	}
	return sh.entry.canonical
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
	t := &s.text
	t.mu.RLock()
	for _, sh := range t.shapes[text] {
		if sh.derived {
			t.mu.RUnlock()
			return sh
		}
	}
	t.mu.RUnlock()
	sh := newShape(stmt, text)
	sh.derived = true
	// A stored shape equal to the derivation (replayed, or put by a caller
	// that derived it another way) is the one later calls find.
	t.mu.Lock()
	defer t.mu.Unlock()
	if have := t.lookupLocked(sh); have != nil {
		have.derived = true
		return have
	}
	return sh
}

// ShapeCount returns how many distinct shapes the store holds: one per
// distinct text, unless records of one text carry different features (a log
// written by an older analyzer).
func (s *Store) ShapeCount() int {
	s.text.mu.RLock()
	defer s.text.mu.RUnlock()
	return s.text.nshapes
}

// share points a record about to be put at the store's shape equal to its
// own when the store holds one, and prepares the record's shape otherwise.
// It runs outside the commit lock, so that interning under the lock is a
// pointer comparison or pure map work. A shape found here may lose its last
// record before the record commits; interning then stores a copy.
func (s *Store) share(rec *QueryRecord) {
	if rec.interned {
		return
	}
	s.text.mu.RLock()
	have := s.text.lookupLocked(rec.QueryShape)
	s.text.mu.RUnlock()
	if have == nil {
		rec.prepare()
	} else {
		rec.QueryShape = have
	}
}

// lookupLocked returns the dictionary's shape equal to sh, or nil. Callers
// must hold mu.
func (t *textIndex) lookupLocked(sh *QueryShape) *QueryShape {
	for _, have := range t.shapes[sh.Text] {
		if sameShape(have, sh) {
			return have
		}
	}
	return nil
}

// internLocked points a record about to be published at the dictionary's
// shape equal to its own, adding its shape when the dictionary holds no equal
// one, and counts the record among the shape's records. A record adopts a
// shape only when every value is equal, so a replayed record whose features
// an older analyzer extracted keeps a shape of its own. Callers must hold mu.
func (t *textIndex) internLocked(rec *QueryRecord) {
	sh := rec.QueryShape
	if have := t.lookupLocked(sh); have != nil {
		have.refs++
		have.derived = have.derived || sh.derived
		rec.QueryShape = have
		return
	}
	if sh.interned {
		// Interned before, by another store or by this one before its last
		// record went; readers may hold it, so the copy is what gets keyed.
		sh = sh.values()
	}
	sh.prepare()
	sh.entry = t.entryLocked(sh.entry)
	sh.refs, sh.interned = 1, true
	t.shapes[sh.Text] = append(t.shapes[sh.Text], sh)
	t.nshapes++
	rec.QueryShape = sh
}

// releaseLocked uncounts a record leaving its shape, dropping the shape from
// the dictionary with its last record. Callers must hold mu.
func (t *textIndex) releaseLocked(rec *QueryRecord) {
	sh := rec.QueryShape
	if sh.refs--; sh.refs == 0 {
		removeFromBucket(t.shapes, sh.Text, sh)
		t.nshapes--
	}
}
