package engine

// The join kernels work on tuples of Row references: the output tuple of a
// join is the references of the left tuple followed by those of the right,
// written into one slab sized by a count pass, so a join copies no Value and
// allocates a number of objects that does not depend on its cardinality.

// crossJoin returns every left tuple paired with every right tuple, left-major.
func crossJoin(left, right *relation) *relation {
	lw, rw := len(left.widths), len(right.widths)
	n := left.n * right.n
	refs := make([]Row, n*(lw+rw))
	out := refs
	for l := 0; l < left.n; l++ {
		lt := left.tuple(l)
		for r := 0; r < right.n; r++ {
			copy(out, lt)
			copy(out[lw:], right.tuple(r))
			out = out[lw+rw:]
		}
	}
	return joinedShape(left, right, refs, n)
}

// hashJoin returns the tuple pairs whose left column lcol equals right column
// rcol; NULL keys match nothing. The smaller side is indexed (the left on a
// tie), the other probes it in its own order, and the matches of one probing
// tuple come out in the indexed side's order.
func hashJoin(left, right *relation, lcol, rcol int) *relation {
	build, probe, bcol, pcol := left, right, lcol, rcol
	buildRight := right.n < left.n
	if buildRight {
		build, probe, bcol, pcol = right, left, rcol, lcol
	}

	// chains[k] is the first build tuple with key k and how many follow it
	// through next; both hold index+1 so that zero means none. Indexing from
	// the last tuple backwards leaves every chain in build order.
	type chain struct{ head, n int32 }
	chains := make(map[valueKey]chain, build.n)
	next := make([]int32, build.n)
	for i := build.n - 1; i >= 0; i-- {
		if v := build.value(i, bcol); v != nil {
			k := keyOf(v)
			c := chains[k]
			next[i] = c.head
			chains[k] = chain{head: int32(i + 1), n: c.n + 1}
		}
	}

	heads := make([]int32, probe.n)
	n := 0
	for i := 0; i < probe.n; i++ {
		if v := probe.value(i, pcol); v != nil {
			c := chains[keyOf(v)]
			heads[i] = c.head
			n += int(c.n)
		}
	}

	lw, rw := len(left.widths), len(right.widths)
	refs := make([]Row, n*(lw+rw))
	out := refs
	for i, b := range heads {
		for ; b != 0; b = next[b-1] {
			l, r := int(b-1), i
			if buildRight {
				l, r = i, int(b-1)
			}
			copy(out, left.tuple(l))
			copy(out[lw:], right.tuple(r))
			out = out[lw+rw:]
		}
	}
	return joinedShape(left, right, refs, n)
}

// value returns column col of tuple i, or nil if it is NULL.
func (r *relation) value(i, col int) *Value {
	b := &r.cols[col]
	row := r.refs[i*len(r.widths)+b.leaf]
	if b.pos >= len(row) || row[b.pos].IsNull() {
		return nil
	}
	return &row[b.pos]
}
