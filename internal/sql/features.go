package sql

import (
	"sort"
	"strings"
)

// Analysis is the set of syntactic query features extracted from a SELECT
// statement: the rows of the DataSources, Attributes and Predicates feature
// relations of Figure 1 in the paper, plus the aggregates and grouping the
// miner and recommender use. It is what the query log stores for each
// distinct query (storage.QueryShape embeds it), so a feature is read where it
// was derived, never copied into a second form.
type Analysis struct {
	// Tables are the base relations referenced in FROM clauses (including
	// nested sub-queries), original spelling preserved, duplicates removed.
	Tables []string
	// Attributes are all column references, resolved against aliases where
	// possible.
	Attributes []AttributeRow
	// Predicates are the atomic comparison predicates found in WHERE/HAVING
	// and join ON conditions.
	Predicates []PredicateRow
	// Aggregates are the aggregate function names used (upper-case).
	Aggregates []string
	// GroupBy are the column names appearing in GROUP BY.
	GroupBy []string
}

// AttributeRow is one row of the Attributes feature relation of Figure 1:
// (qid, attrName, relName) extended with the clause the attribute appears in.
type AttributeRow struct {
	Attr   string
	Rel    string // resolved base relation when possible, otherwise the raw qualifier (possibly empty)
	Clause string // SELECT, WHERE, GROUPBY, HAVING, ORDERBY, JOIN
}

// PredicateRow is one row of the Predicates feature relation of Figure 1:
// (qid, attrName, relName, op, const), an atomic predicate "column op
// constant" or, for a join, "column op column".
type PredicateRow struct {
	Attr   string
	Rel    string
	Op     string // =, <>, <, <=, >, >=, LIKE, IN, BETWEEN, ISNULL, ISNOTNULL
	Const  string // rendered constant, or "" for join and IS [NOT] NULL predicates
	IsJoin bool   // true when both sides are column references
	// For join predicates the right-hand side.
	RightRel  string
	RightAttr string
}

// The feature strings of a query's flat feature set, the representation the
// miner (association rules, Jaccard similarity) and the recommender read,
// are prefixed by their kind:
//
//	table:WaterSalinity
//	col:WaterTemp.temp
//	pred:WaterTemp.temp < ?
//	join:WaterSalinity.loc_x=WaterTemp.loc_x
//	agg:AVG
//	groupby:CityLocations.city
//
// Nothing outside this package spells them (TestFeatureKeysHaveOneHome).
const (
	tableFeature   = "table:"
	columnFeature  = "col:"
	predFeature    = "pred:"
	joinFeature    = "join:"
	aggFeature     = "agg:"
	groupByFeature = "groupby:"
)

// TableFeature returns the feature string of a referenced relation.
func TableFeature(table string) string { return tableFeature + table }

// ColumnFeature returns the feature string of an attribute named as
// AttributeRow.Name names it.
func ColumnFeature(name string) string { return columnFeature + name }

// FeatureTable returns the relation a table feature names, and whether
// feature is one.
func FeatureTable(feature string) (string, bool) { return strings.CutPrefix(feature, tableFeature) }

// qualify returns rel.attr, or attr alone when the relation is unknown.
func qualify(rel, attr string) string {
	if rel == "" {
		return attr
	}
	return rel + "." + attr
}

// Name returns the attribute as Rel.Attr, or Attr alone when its relation is
// unknown: the column name completion counts, suggests and diffs.
func (a AttributeRow) Name() string { return qualify(a.Rel, a.Attr) }

// Text renders the predicate as the recommender suggests it and a diff
// labels it: "Rel.Attr op const", or for a join "Rel.Attr op
// RightRel.RightAttr" (the right side qualified even when its relation is
// unknown), the left column named as AttributeRow.Name names it. A
// concrete predicate's text is the stats counter key, the completion and
// the correction candidate, so those agree byte for byte.
func (p PredicateRow) Text() string {
	if p.IsJoin {
		return qualify(p.Rel, p.Attr) + " " + p.Op + " " + p.RightRel + "." + p.RightAttr
	}
	return qualify(p.Rel, p.Attr) + " " + p.Op + " " + p.Const
}

// CanonicalJoin renders a join predicate with both sides qualified and the
// two sides of an equi-join ordered, so "A.x = B.x" and "B.x = A.x"
// aggregate under one key, and returns the relations of its left and right
// side as the key orders them. The key is exactly the join suggestion the
// recommender emits.
func (p PredicateRow) CanonicalJoin() (key, leftRel, rightRel string) {
	left, right := p.Rel+"."+p.Attr, p.RightRel+"."+p.RightAttr
	leftRel, rightRel = p.Rel, p.RightRel
	if p.Op == "=" && left > right {
		left, right = right, left
		leftRel, rightRel = rightRel, leftRel
	}
	return left + " " + p.Op + " " + right, leftRel, rightRel
}

// Feature returns the predicate's feature string: the predicate with its
// constant removed, so "temp < 18" and "temp < 22" share one, or for a join
// its two sides in order whatever the operator. Both sides are qualified even
// when a relation is unknown. A diff pairs two queries' predicates by it.
func (p PredicateRow) Feature() string {
	if p.IsJoin {
		a, b := p.Rel+"."+p.Attr, p.RightRel+"."+p.RightAttr
		if a > b {
			a, b = b, a
		}
		return joinFeature + a + "=" + b
	}
	return predFeature + p.Rel + "." + p.Attr + " " + p.Op + " ?"
}

// FeatureSet returns the analysis as a sorted flat set of feature strings.
func (a *Analysis) FeatureSet() []string {
	set := make(map[string]bool)
	for _, t := range a.Tables {
		set[TableFeature(t)] = true
	}
	for _, c := range a.Attributes {
		set[ColumnFeature(c.Name())] = true
	}
	for _, p := range a.Predicates {
		set[p.Feature()] = true
	}
	for _, agg := range a.Aggregates {
		set[aggFeature+agg] = true
	}
	for _, g := range a.GroupBy {
		set[groupByFeature+g] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
