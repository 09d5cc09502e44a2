package storage

import (
	"fmt"
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
	// gives it its seq.
	text, canonical string   // lower-cased Text and Canonical: the search keys
	tables          []string // lower-cased Tables: the byTable keys
	// seq is the shape's number: its creation rank in the dictionary, from
	// 1, and the key the log and snapshots write in its place once it is
	// defined (see Number). Trigram and table postings are kept in ascending
	// seq so that intersecting them is a merge. A shape no store has
	// interned carries 0, or the number the log it was read from defined it
	// under.
	seq uint64
	// ids holds the ascending IDs of the stored records pointing at the
	// shape: a copy-on-write bucket (appended in place, rebuilt on removal)
	// whose header index.mu guards. Its length is the reference count: the
	// shape leaves the dictionary with its last record.
	ids      []QueryID
	interned bool // held by a store's dictionary, now or before
	derived  bool // equal to what ShapeOf derives from Text in this process

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
	for _, sh := range ix.shapes[text] {
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
	if have := ix.lookupLocked(sh); have != nil {
		have.derived = true
		return have
	}
	return sh
}

// Number returns the shape's number in the store that holds it: its
// creation rank, fixed by the log so that every store rebuilt from the log —
// by replay, from a snapshot, or as a follower — numbers it alike. It is 0 for
// a shape no store has numbered.
func (sh *QueryShape) Number() uint64 { return sh.seq }

// ShapeCount returns how many distinct shapes the store holds: one per
// distinct text, unless records of one text carry different features (a log
// written by an older analyzer).
func (s *Store) ShapeCount() int {
	s.index.mu.RLock()
	defer s.index.mu.RUnlock()
	return s.index.nshapes
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
	s.index.mu.RLock()
	have := s.index.lookupLocked(rec.QueryShape)
	s.index.mu.RUnlock()
	if have == nil {
		rec.prepare()
	} else {
		rec.QueryShape = have
	}
}

// lookupLocked returns the dictionary's shape equal to sh, or nil. Callers
// must hold mu.
func (ix *index) lookupLocked(sh *QueryShape) *QueryShape {
	for _, have := range ix.shapes[sh.Text] {
		if sameShape(have, sh) {
			return have
		}
	}
	return nil
}

// internLocked points a record about to be published at the dictionary's
// shape for it and posts the record's ID on that shape. It reports whether the
// record entered its shape, which the log then defines inline. A shape the
// dictionary holds is adopted as it is; a definition read from the log enters
// under the number the log gave it (resolveLocked checked that the number is
// free); any other shape adopts the dictionary's equal one, or enters under
// the next number. A record adopts a shape only when every value is equal, so
// a replayed record whose features an older analyzer extracted keeps a shape
// of its own. Callers must hold mu.
func (ix *index) internLocked(rec *QueryRecord) (entered bool) {
	sh := rec.QueryShape
	switch {
	case sh.interned && ix.byNum[sh.seq] == sh:
	case !sh.interned && sh.seq != 0 && ix.byNum[sh.seq] == nil:
		sh.prepare()
		ix.enterLocked(sh, sh.seq)
		entered = true
	default:
		if have := ix.lookupLocked(sh); have != nil {
			have.derived = have.derived || sh.derived
			sh = have
			break
		}
		if sh.interned || sh.seq != 0 {
			// Interned before, by another store or by this one before its
			// last record went, and readers may hold it; or numbered by a
			// log whose number is taken. The copy is what gets keyed.
			sh = sh.values()
		}
		sh.prepare()
		ix.enterLocked(sh, ix.nextSeq)
		entered = true
	}
	sh.ids = insertSorted(sh.ids, rec.ID)
	rec.QueryShape = sh
	return entered
}

// resolveLocked points the record of a put or replace-text read from the log
// at the live shape its frame names: the one a reference names, or the one
// already holding the number of an inline definition when both hold equal
// values (a replay that overlaps its snapshot). A reference to a number no
// live shape has, and a definition whose number a shape with other values
// holds, are errors naming the number; nothing is changed then. Callers must
// hold the commit lock.
func (ix *index) resolveLocked(m *Mutation) error {
	if m.shapeRef != 0 {
		sh := ix.byNum[m.shapeRef]
		if sh == nil {
			return fmt.Errorf("%w: the %s of query %d refers to shape %d, which no live query has", ErrUnknownShape, m.Op, m.targetID(), m.shapeRef)
		}
		m.Record.QueryShape, m.shapeRef = sh, 0
		return nil
	}
	sh := m.Record.QueryShape
	if sh == nil {
		return fmt.Errorf("storage: apply %s: the record has no shape", m.Op)
	}
	if sh.interned || sh.seq == 0 {
		return nil
	}
	have := ix.byNum[sh.seq]
	switch {
	case have == nil:
	case sameShape(have, sh):
		m.Record.QueryShape = have
	default:
		return fmt.Errorf("%w: the %s of query %d defines shape %d, which a live shape with other values holds", ErrUnknownShape, m.Op, m.targetID(), sh.seq)
	}
	return nil
}

// releaseLocked removes a record leaving its shape from the shape's IDs,
// dropping the shape from the dictionary with its last record. Callers must
// hold mu.
func (ix *index) releaseLocked(rec *QueryRecord) {
	sh := rec.QueryShape
	if sh.ids = removeElem(sh.ids, rec.ID); len(sh.ids) == 0 {
		ix.leaveLocked(sh)
	}
}
