package storage

import (
	"fmt"
	"strings"

	"repro/internal/sql"
)

// FeatureParseError is the feature-set class assigned to raw-captured
// records whose text failed to parse. It keeps unparsable statements
// findable (keyword search still works on raw text) and groups them under
// one fingerprint class in the stats and mining surfaces.
const FeatureParseError = "parse_error"

// NewRecordFromSQL parses the query text and builds its record: the text-in
// entry point for callers that hold only text. A caller that needs the parsed
// statement too (the profiler executes it) parses once itself and calls
// NewRecord.
func NewRecordFromSQL(text string) (*QueryRecord, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("storage: parsing query: %w", err)
	}
	return NewRecord(stmt, text), nil
}

// NewRecord builds the record of a parsed statement, ready for Store.Put:
// canonical form and template are printed once each, both fingerprints are
// hashed from those two strings, and a SELECT's syntactic features come from
// one analysis of the tree. text is the statement as the user wrote it.
// Runtime statistics, samples, user identity and visibility are filled in by
// the caller (normally the Query Profiler).
func NewRecord(stmt sql.Statement, text string) *QueryRecord {
	rec := &QueryRecord{
		Text:      text,
		Canonical: stmt.SQL(),
		Template:  sql.Template(stmt),
		Valid:     true,
	}
	rec.setFingerprints()
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return rec
	}
	a := sql.Analyze(sel)
	rec.Tables = a.Tables
	for _, c := range a.Columns {
		rec.Attributes = append(rec.Attributes, AttributeRow{Attr: c.Column, Rel: c.Table, Clause: c.Clause})
	}
	for _, p := range a.Predicates {
		rec.Predicates = append(rec.Predicates, PredicateRow{
			Attr: p.Column, Rel: p.Table, Op: p.Op, Const: p.Value,
			IsJoin: p.IsJoin, RightRel: p.RightTab, RightAttr: p.RightCol,
		})
	}
	rec.Aggregates = a.Aggregates
	rec.GroupBy = a.GroupByColumns
	rec.Features = a.FeatureSet()
	return rec
}

// NewRawRecord builds a QueryRecord for text that failed to parse: the raw
// text is preserved, the canonical form falls back to whitespace-collapsed
// upper-casing, the template is the lexer-level constant mask
// (sql.MaskConstants, which does not parse), and the record is marked
// invalid with the parse error as its reason. Its feature set carries the
// FeatureParseError class so the statement is still captured — the paper's
// premise is that the log is collected as a side effect of use, and a
// statement our SQL subset cannot parse is still real workload worth
// logging — without polluting the structured feature relations.
func NewRawRecord(text string, parseErr error) *QueryRecord {
	rec := &QueryRecord{
		Text:      text,
		Canonical: strings.ToUpper(strings.Join(strings.Fields(text), " ")),
		Template:  sql.MaskConstants(text),
		Valid:     false,
		Features:  []string{FeatureParseError},
	}
	rec.setFingerprints()
	if parseErr != nil {
		rec.InvalidReason = "parse error: " + parseErr.Error()
	} else {
		rec.InvalidReason = "parse error"
	}
	return rec
}

// setFingerprints derives both hashes from the two strings already in hand:
// Fingerprint is 64-bit FNV-1a over the upper-cased template (queries that
// are structurally identical up to constants share it), ExactHash over the
// canonical form (constants included; exact-duplicate detection).
func (q *QueryRecord) setFingerprints() {
	q.Fingerprint = fnv1a(strings.ToUpper(q.Template))
	q.ExactHash = fnv1a(q.Canonical)
}

// fnv1a is hash/fnv's New64a over a string, without the hash.Hash and []byte
// allocations.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Analysis reconstructs a sql.Analysis from the stored feature rows, so that
// components which operate on analyses (diffing, similarity) do not need to
// re-parse the query text.
func (q *QueryRecord) Analysis() *sql.Analysis {
	a := &sql.Analysis{Aliases: map[string]string{}}
	a.Tables = append([]string(nil), q.Tables...)
	for _, attr := range q.Attributes {
		a.Columns = append(a.Columns, sql.ColumnUse{Table: attr.Rel, Column: attr.Attr, Clause: attr.Clause})
	}
	for _, p := range q.Predicates {
		a.Predicates = append(a.Predicates, sql.PredicateFeature{
			Table: p.Rel, Column: p.Attr, Op: p.Op, Value: p.Const,
			IsJoin: p.IsJoin, RightTab: p.RightRel, RightCol: p.RightAttr,
		})
	}
	a.Aggregates = append([]string(nil), q.Aggregates...)
	a.GroupByColumns = append([]string(nil), q.GroupBy...)
	return a
}
