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

// NewRecord builds the record of a parsed statement, ready for Store.Put, with
// a shape of its own derived from the statement (Store.ShapeOf shares one the
// store holds instead). text is the statement as the user wrote it. Runtime
// statistics, samples, user identity and visibility are filled in by the
// caller (normally the Query Profiler).
func NewRecord(stmt sql.Statement, text string) *QueryRecord {
	return &QueryRecord{QueryShape: newShape(stmt, text), Valid: true}
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
	sh := &QueryShape{
		Text:      text,
		Canonical: strings.ToUpper(strings.Join(strings.Fields(text), " ")),
		Template:  sql.MaskConstants(text),
		Features:  []string{FeatureParseError},
	}
	sh.setFingerprints()
	rec := &QueryRecord{QueryShape: sh, InvalidReason: "parse error"}
	if parseErr != nil {
		rec.InvalidReason = "parse error: " + parseErr.Error()
	}
	return rec
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
