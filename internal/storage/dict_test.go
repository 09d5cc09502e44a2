package storage

import (
	"slices"
	"testing"
)

// checkDict is a dictionary's leak and numbering check: byNum holds each
// live value under its own number, below the counter, and byKey holds
// exactly the same values, each under its own key, no two equal unless
// distinct is false (a log that overlaps its snapshot may define a value
// under its own number while an equal one is live under another). refs maps
// each value the live records point at to how many do, and count is what
// the value counts. Callers hold index.mu.
func checkDict[K comparable, P shared[K, P]](t testing.TB, noun string, d *dict[K, P], refs map[P]int, count func(P) int, distinct bool) {
	t.Helper()
	keyed := 0
	for k, list := range d.byKey {
		for i, v := range list {
			keyed++
			if num := v.numbering().seq; v.key() != k || d.byNum[num] != v {
				t.Errorf("%s %d is filed under another key or is not live under its number", noun, num)
			}
			if distinct && slices.ContainsFunc(list[:i], v.same) {
				t.Errorf("two equal %ss are live under one key", noun)
			}
		}
	}
	if keyed != len(d.byNum) {
		t.Errorf("the %s dictionary keys %d values and numbers %d", noun, keyed, len(d.byNum))
	}
	for num, v := range d.byNum {
		if n := v.numbering(); !n.interned || num == 0 || n.seq != num || num >= d.nextSeq {
			t.Errorf("%s %d (counter %d) is numbered %d", noun, num, d.nextSeq, n.seq)
		}
		if c := count(v); c == 0 || c != refs[v] {
			t.Errorf("%s %d counts %d records, %d point at it", noun, num, c, refs[v])
		}
		delete(refs, v)
	}
	for v, k := range refs {
		t.Errorf("%d records point at a %s numbered %d the dictionary does not hold", k, noun, v.numbering().seq)
	}
}
