package sql

import (
	"fmt"
	"sort"
	"strings"
)

// DiffKind classifies one entry of a query diff.
type DiffKind int

// Diff entry kinds.
const (
	DiffAddTable DiffKind = iota
	DiffRemoveTable
	DiffAddColumn
	DiffRemoveColumn
	DiffAddPredicate
	DiffRemovePredicate
	DiffChangeConstant
	DiffAddAggregate
	DiffRemoveAggregate
	DiffAddGroupBy
	DiffRemoveGroupBy
)

// String returns a short human-readable label for the diff kind.
func (k DiffKind) String() string {
	switch k {
	case DiffAddTable:
		return "+table"
	case DiffRemoveTable:
		return "-table"
	case DiffAddColumn:
		return "+col"
	case DiffRemoveColumn:
		return "-col"
	case DiffAddPredicate:
		return "+pred"
	case DiffRemovePredicate:
		return "-pred"
	case DiffChangeConstant:
		return "~const"
	case DiffAddAggregate:
		return "+agg"
	case DiffRemoveAggregate:
		return "-agg"
	case DiffAddGroupBy:
		return "+groupby"
	case DiffRemoveGroupBy:
		return "-groupby"
	default:
		return "?"
	}
}

// DiffEntry is a single structural difference between two queries.
type DiffEntry struct {
	Kind   DiffKind
	Detail string
}

// String renders the entry as in Figure 2's edge labels, e.g. "+pred temp < 18".
func (d DiffEntry) String() string {
	return d.Kind.String() + " " + d.Detail
}

// Diff summarises the structural difference between two queries. It is used
// both for the session-graph edge labels (Figure 2) and for the "Diff"
// column of the similar-queries pane (Figure 3).
type Diff struct {
	Entries []DiffEntry
}

// Empty reports whether the two queries are structurally identical.
func (d *Diff) Empty() bool { return len(d.Entries) == 0 }

// Size returns the number of differences.
func (d *Diff) Size() int { return len(d.Entries) }

// String renders the diff as a comma-separated summary ("+table WaterSalinity, ~const temp").
// An empty diff renders as "none", matching Figure 3.
func (d *Diff) String() string {
	if d.Empty() {
		return "none"
	}
	parts := make([]string, len(d.Entries))
	for i, e := range d.Entries {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

// Summary returns the compact count form used in Figure 3's Diff column,
// e.g. "-1 col, -1 pred" or "none".
func (d *Diff) Summary() string {
	if d.Empty() {
		return "none"
	}
	counts := make(map[string]int)
	order := []string{}
	for _, e := range d.Entries {
		var key string
		switch e.Kind {
		case DiffAddTable:
			key = "+%d table"
		case DiffRemoveTable:
			key = "-%d table"
		case DiffAddColumn:
			key = "+%d col"
		case DiffRemoveColumn:
			key = "-%d col"
		case DiffAddPredicate:
			key = "+%d pred"
		case DiffRemovePredicate:
			key = "-%d pred"
		case DiffChangeConstant:
			key = "~%d const"
		case DiffAddAggregate:
			key = "+%d agg"
		case DiffRemoveAggregate:
			key = "-%d agg"
		case DiffAddGroupBy:
			key = "+%d groupby"
		case DiffRemoveGroupBy:
			key = "-%d groupby"
		}
		if _, seen := counts[key]; !seen {
			order = append(order, key)
		}
		counts[key]++
	}
	parts := make([]string, 0, len(order))
	for _, key := range order {
		parts = append(parts, fmt.Sprintf(key, counts[key]))
	}
	return strings.Join(parts, ", ")
}

// ComputeDiff computes the structural difference from query a to query b
// (what must be added to / removed from a to obtain b). Both arguments are
// analyses so that callers who already extracted features do not pay for a
// second parse.
func ComputeDiff(a, b *Analysis) *Diff {
	d := &Diff{}
	if a == nil {
		a = &Analysis{}
	}
	if b == nil {
		b = &Analysis{}
	}

	// Tables.
	addRemove(setOf(a.Tables), setOf(b.Tables), func(name string, added bool) {
		if added {
			d.Entries = append(d.Entries, DiffEntry{Kind: DiffAddTable, Detail: name})
		} else {
			d.Entries = append(d.Entries, DiffEntry{Kind: DiffRemoveTable, Detail: name})
		}
	})

	// Projected columns (SELECT clause only).
	addRemove(selectColumnSet(a), selectColumnSet(b), func(name string, added bool) {
		if added {
			d.Entries = append(d.Entries, DiffEntry{Kind: DiffAddColumn, Detail: name})
		} else {
			d.Entries = append(d.Entries, DiffEntry{Kind: DiffRemoveColumn, Detail: name})
		}
	})

	// Predicates: compare templates first; predicates with the same template
	// but different constants are reported as constant changes.
	aPreds := predicateMaps(a)
	bPreds := predicateMaps(b)
	keys := unionKeys(aPreds, bPreds)
	for _, tmpl := range keys {
		av, aok := aPreds[tmpl]
		bv, bok := bPreds[tmpl]
		switch {
		case aok && bok:
			if av != bv {
				d.Entries = append(d.Entries, DiffEntry{Kind: DiffChangeConstant, Detail: bv})
			}
		case bok:
			d.Entries = append(d.Entries, DiffEntry{Kind: DiffAddPredicate, Detail: bv})
		default:
			d.Entries = append(d.Entries, DiffEntry{Kind: DiffRemovePredicate, Detail: av})
		}
	}

	// Aggregates.
	addRemove(setOf(a.Aggregates), setOf(b.Aggregates), func(name string, added bool) {
		if added {
			d.Entries = append(d.Entries, DiffEntry{Kind: DiffAddAggregate, Detail: name})
		} else {
			d.Entries = append(d.Entries, DiffEntry{Kind: DiffRemoveAggregate, Detail: name})
		}
	})

	// Group-by columns.
	addRemove(setOf(a.GroupByColumns), setOf(b.GroupByColumns), func(name string, added bool) {
		if added {
			d.Entries = append(d.Entries, DiffEntry{Kind: DiffAddGroupBy, Detail: name})
		} else {
			d.Entries = append(d.Entries, DiffEntry{Kind: DiffRemoveGroupBy, Detail: name})
		}
	})
	return d
}

func setOf(items []string) map[string]bool {
	m := make(map[string]bool, len(items))
	for _, s := range items {
		m[s] = true
	}
	return m
}

func selectColumnSet(a *Analysis) map[string]bool {
	m := make(map[string]bool)
	for _, c := range a.Columns {
		if c.Clause != "SELECT" {
			continue
		}
		name := c.Column
		if c.Table != "" {
			name = c.Table + "." + c.Column
		}
		m[name] = true
	}
	return m
}

// predicateMaps maps predicate template -> rendered predicate text.
func predicateMaps(a *Analysis) map[string]string {
	m := make(map[string]string)
	for _, p := range a.Predicates {
		col := p.Column
		if p.Table != "" {
			col = p.Table + "." + p.Column
		}
		var rendered string
		if p.IsJoin {
			rendered = col + " " + p.Op + " " + p.RightTab + "." + p.RightCol
		} else {
			rendered = col + " " + p.Op + " " + p.Value
		}
		m[p.TemplateKey()] = rendered
	}
	return m
}

func unionKeys(a, b map[string]string) []string {
	set := make(map[string]bool, len(a)+len(b))
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func addRemove(a, b map[string]bool, emit func(name string, added bool)) {
	var names []string
	for k := range a {
		names = append(names, k)
	}
	for k := range b {
		if !a[k] {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		inA, inB := a[name], b[name]
		switch {
		case inA && !inB:
			emit(name, false)
		case !inA && inB:
			emit(name, true)
		}
	}
}
