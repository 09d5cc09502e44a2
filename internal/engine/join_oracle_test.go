package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// oracleCrossJoinRows and oracleHashJoinRows are the join kernels of commit
// 1cf4504, verbatim but for their names and hashJoinRows' ignored last
// parameter: every joined row a fresh copy of all columns of both sides, the
// hash index keyed by Value.Key strings. They are the reference the
// by-reference kernels are held to: same rows, same order.

func oracleCrossJoinRows(left, right []Row) []Row {
	out := make([]Row, 0, len(left)*len(right))
	for _, l := range left {
		for _, r := range right {
			out = append(out, append(append(Row{}, l...), r...))
		}
	}
	return out
}

func oracleHashJoinRows(left, right []Row, li, ri int) []Row {
	// Build on the smaller side.
	if len(right) < len(left) {
		index := make(map[string][]Row, len(right))
		for _, r := range right {
			if r[ri].IsNull() {
				continue
			}
			k := keyString(r[ri])
			index[k] = append(index[k], r)
		}
		var out []Row
		for _, l := range left {
			if l[li].IsNull() {
				continue
			}
			for _, r := range index[keyString(l[li])] {
				out = append(out, append(append(Row{}, l...), r...))
			}
		}
		return out
	}
	index := make(map[string][]Row, len(left))
	for _, l := range left {
		if l[li].IsNull() {
			continue
		}
		k := keyString(l[li])
		index[k] = append(index[k], l)
	}
	var out []Row
	for _, r := range right {
		if r[ri].IsNull() {
			continue
		}
		for _, l := range index[keyString(r[ri])] {
			out = append(out, append(append(Row{}, l...), r...))
		}
	}
	return out
}

// keyPool is the values join keys, group keys and DISTINCT rows are drawn
// from: duplicates across int and float, NULL, both zeros, NaN of two bit
// patterns, the integers float64 cannot tell apart, infinities, text that
// looks like the other types' keys, booleans and timestamps.
var keyPool = []Value{
	Null,
	NewInt(0), NewFloat(0), NewFloat(math.Copysign(0, -1)),
	NewInt(1), NewFloat(1), NewInt(2), NewFloat(2), NewFloat(2.5), NewInt(-2),
	NewInt(1 << 53), NewInt(1<<53 + 1), NewFloat(1 << 53),
	NewFloat(math.NaN()), NewFloat(math.Float64frombits(0xfff8000000000002)),
	NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
	NewText(""), NewText("a"), NewText("A"), NewText("1"), NewText("n:1"), NewText("NULL"), NewText("a\x1fs:b"),
	NewBool(true), NewBool(false),
	NewTimestamp(time.Unix(0, 0).UTC()), NewTimestamp(time.Unix(0, 1)), NewTimestamp(time.Unix(1, 0).In(time.FixedZone("x", 3600))),
	{Type: Type(42)}, {Type: Type(43)},
}

// TestKeyStructMatchesKeyString pins valueKey, and the multi-value row key,
// to the equality classes of Value.Key.
func TestKeyStructMatchesKeyString(t *testing.T) {
	for i := range keyPool {
		for j := range keyPool {
			a, b := keyPool[i], keyPool[j]
			if byString, byStruct := keyString(a) == keyString(b), keyOf(&a) == keyOf(&b); byString != byStruct {
				t.Errorf("%#v vs %#v: Key strings equal = %v, valueKeys equal = %v", a, b, byString, byStruct)
			}
			row := []Value{a, b}
			if want, got := keyString(a)+"\x1f"+keyString(b), string(appendRowKey(nil, row)); got != want {
				t.Errorf("row key of %v = %q, want %q", row, got, want)
			}
		}
	}

	// keyIndex numbers keys as a map of Key strings would, whatever their width.
	r := rand.New(rand.NewSource(1))
	for width := 0; width <= 3; width++ {
		var index keyIndex
		byString := map[string]int32{}
		for n := 0; n < 2000; n++ {
			key := make([]Value, width)
			parts := make([]string, width)
			for i := range key {
				key[i] = keyPool[r.Intn(len(keyPool))]
				parts[i] = keyString(key[i])
			}
			want, seen := byString[strings.Join(parts, "\x1f")]
			if !seen {
				want = int32(len(byString))
				byString[strings.Join(parts, "\x1f")] = want
			}
			if index.has(key) != seen {
				t.Fatalf("width %d: has(%v) = %v, want %v", width, key, !seen, seen)
			}
			if id, fresh := index.add(key); id != want || fresh == seen {
				t.Fatalf("width %d: add(%v) = %d, %v; want %d, %v", width, key, id, fresh, want, !seen)
			}
		}
	}
}

// randomRelation builds a relation of n tuples over the given leaf widths,
// its values drawn from keyPool, with some references NULL-padded (nil) when
// the relation has more than one leaf, as the output of an outer join has.
func randomRelation(r *rand.Rand, name string, widths []int, n int) *relation {
	rel := &relation{widths: widths, n: n}
	for leaf, w := range widths {
		for pos := 0; pos < w; pos++ {
			rel.cols = append(rel.cols, binding{qualifier: name, table: name, column: fmt.Sprintf("c%d_%d", leaf, pos), leaf: leaf, pos: pos})
		}
	}
	for i := 0; i < n; i++ {
		for _, w := range widths {
			if len(widths) > 1 && r.Intn(6) == 0 {
				rel.refs = append(rel.refs, nil)
				continue
			}
			row := make(Row, w)
			for pos := range row {
				row[pos] = keyPool[r.Intn(len(keyPool))]
			}
			rel.refs = append(rel.refs, row)
		}
	}
	return rel
}

// wideRows copies a relation out as the wide rows the parent's executor
// carried: every column of every leaf, NULLs for a padded side.
func wideRows(rel *relation) []Row {
	out := make([]Row, rel.n)
	for i := range out {
		out[i] = Row(appendStar(nil, rel, rel.tuple(i)))
	}
	return out
}

func sameRows(a, b []Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows, want %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d has %d values, want %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.Type != y.Type || x.Int != y.Int || math.Float64bits(x.Float) != math.Float64bits(y.Float) ||
				x.Str != y.Str || x.Bool != y.Bool || !x.Time.Equal(y.Time) {
				return fmt.Errorf("row %d column %d is %#v, want %#v", i, j, x, y)
			}
		}
	}
	return nil
}

// TestJoinKernelsMatchWideRowOracle holds the by-reference kernels to the
// parent's wide-row kernels on random relations: empty, single-tuple and
// larger sides in both size orders (so both build-side choices), inputs of
// one to three leaves with NULL-padded references, every key column.
func TestJoinKernelsMatchWideRowOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	shapes := [][]int{{1}, {3}, {2, 1}, {1, 2, 2}}
	sizes := []int{0, 1, 2, 7, 40}
	cases := 0
	for _, lw := range shapes {
		for _, rw := range shapes {
			for _, ln := range sizes {
				for _, rn := range sizes {
					left, right := randomRelation(r, "l", lw, ln), randomRelation(r, "r", rw, rn)
					wl, wr := wideRows(left), wideRows(right)
					if err := sameRows(wideRows(crossJoin(left, right)), oracleCrossJoinRows(wl, wr)); err != nil {
						t.Fatalf("cross join of %v x %d and %v x %d: %v", lw, ln, rw, rn, err)
					}
					for lcol := range left.cols {
						for rcol := range right.cols {
							got := hashJoin(left, right, lcol, rcol)
							if len(got.widths) != len(lw)+len(rw) || len(got.cols) != len(left.cols)+len(right.cols) {
								t.Fatalf("joined shape %v over %d columns", got.widths, len(got.cols))
							}
							if err := sameRows(wideRows(got), oracleHashJoinRows(wl, wr, lcol, rcol)); err != nil {
								t.Fatalf("hash join of %v x %d and %v x %d on %d = %d: %v", lw, ln, rw, rn, lcol, rcol, err)
							}
							cases++
						}
					}
				}
			}
		}
	}
	if cases < 1000 {
		t.Errorf("only %d hash joins compared", cases)
	}
}
