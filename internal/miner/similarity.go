// Package miner implements the CQMS Query Miner (Figure 4), the component
// that analyses the Query Storage. It provides:
//
//   - the query similarity measures of §4.3 (string, feature-set, parse-tree
//     template and output overlap), which the kNN search and the session
//     detector read;
//   - association rules over query features: the Feed, an exact multiset of
//     the log's distinct feature sets kept by the mutation bus, is the one
//     rule source, and a mining pass only re-derives its rules; batch Apriori
//     is its test oracle and the E6 baseline;
//   - k-medoids clustering, which the E7 ablation runs and no pass does.
package miner

import (
	"strings"

	"repro/internal/storage"
)

// Measure identifies one of the similarity measures of §4.3.
type Measure int

// Similarity measures.
const (
	// MeasureText is trigram similarity over the raw query text.
	MeasureText Measure = iota
	// MeasureFeatures is Jaccard similarity over the feature sets.
	MeasureFeatures
	// MeasureTemplate is similarity of the constant-masked templates (1.0 for
	// identical templates, otherwise trigram similarity of the templates —
	// "parse tree similarity after removing the constants" per §4.3).
	MeasureTemplate
	// MeasureOutput is Jaccard similarity over sampled output rows, comparing
	// queries as black boxes (§4.1).
	MeasureOutput
)

// String returns the measure's name.
func (m Measure) String() string {
	switch m {
	case MeasureText:
		return "text"
	case MeasureFeatures:
		return "features"
	case MeasureTemplate:
		return "template"
	case MeasureOutput:
		return "output"
	default:
		return "unknown"
	}
}

// Similarity computes the chosen measure between two stored queries. All
// measures return values in [0, 1], 1 meaning identical.
func Similarity(m Measure, a, b *storage.QueryRecord) float64 {
	switch m {
	case MeasureText:
		return trigramSimilarity(strings.ToLower(a.Canonical), strings.ToLower(b.Canonical))
	case MeasureFeatures:
		return jaccardStrings(a.Features, b.Features)
	case MeasureTemplate:
		if a.Fingerprint == b.Fingerprint {
			return 1
		}
		return trigramSimilarity(strings.ToLower(a.Template), strings.ToLower(b.Template))
	case MeasureOutput:
		return outputSimilarity(a.Sample, b.Sample)
	default:
		return 0
	}
}

// CompositeWeights holds the weights of a weighted combination of measures,
// the ranking-function composition question raised in §2.3.
type CompositeWeights struct {
	Text     float64
	Features float64
	Template float64
	Output   float64
}

// DefaultWeights emphasises structural similarity with a small contribution
// from output overlap.
func DefaultWeights() CompositeWeights {
	return CompositeWeights{Text: 0.1, Features: 0.5, Template: 0.3, Output: 0.1}
}

// CompositeSimilarity combines the individual measures with the given
// weights, normalising by the total weight.
func CompositeSimilarity(w CompositeWeights, a, b *storage.QueryRecord) float64 {
	total := w.Text + w.Features + w.Template + w.Output
	if total == 0 {
		return 0
	}
	sum := w.Text*Similarity(MeasureText, a, b) +
		w.Features*Similarity(MeasureFeatures, a, b) +
		w.Template*Similarity(MeasureTemplate, a, b) +
		w.Output*Similarity(MeasureOutput, a, b)
	return sum / total
}

// jaccardStrings is Jaccard similarity of two string sets.
func jaccardStrings(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	set := make(map[string]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	inter := 0
	union := len(set)
	for _, y := range b {
		if set[y] {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union)
}

// trigramSimilarity is Jaccard similarity over character trigrams, a cheap
// and robust string similarity for SQL text.
func trigramSimilarity(a, b string) float64 {
	if a == b {
		return 1
	}
	ta := trigrams(a)
	tb := trigrams(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	inter := 0
	for g := range ta {
		if tb[g] {
			inter++
		}
	}
	union := len(ta) + len(tb) - inter
	return float64(inter) / float64(union)
}

func trigrams(s string) map[string]bool {
	s = strings.Join(strings.Fields(s), " ")
	out := make(map[string]bool)
	if len(s) < 3 {
		if s != "" {
			out[s] = true
		}
		return out
	}
	for i := 0; i+3 <= len(s); i++ {
		out[s[i:i+3]] = true
	}
	return out
}

// outputSimilarity compares two output samples as sets of stringified rows.
// Queries without samples have zero output similarity to anything.
func outputSimilarity(a, b *storage.OutputSample) float64 {
	if a == nil || b == nil {
		return 0
	}
	if len(a.Rows) == 0 && len(b.Rows) == 0 {
		return 1
	}
	rowsA := make([]string, len(a.Rows))
	for i, r := range a.Rows {
		rowsA[i] = strings.Join(r, "\x1f")
	}
	rowsB := make([]string, len(b.Rows))
	for i, r := range b.Rows {
		rowsB[i] = strings.Join(r, "\x1f")
	}
	return jaccardStrings(rowsA, rowsB)
}

// PairwiseMatrix computes the full symmetric similarity matrix for the given
// records under one measure. KMedoids and the E7 similarity-measure ablation
// read it.
func PairwiseMatrix(m Measure, records []*storage.QueryRecord) [][]float64 {
	n := len(records)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		out[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := Similarity(m, records[i], records[j])
			out[i][j] = s
			out[j][i] = s
		}
	}
	return out
}
