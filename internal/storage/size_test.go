package storage

import (
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestSizeBoundsCoverTheEncoding: the admission bounds are only worth
// anything if nothing encodes larger than they say.
func TestSizeBoundsCoverTheEncoding(t *testing.T) {
	var enc Encoder
	for name, m := range codecCases(t) {
		payload, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if bound := mutationBound(m); int64(len(payload)) > bound {
			t.Errorf("%s: payload %d bytes, bound %d", name, len(payload), bound)
		}
		if m.Record != nil {
			// A snapshot writes the shape and the record's own fields as two
			// elements, each after a number.
			enc.resetTable()
			body := enc.shapeBody(binary.AppendUvarint(nil, maxNumber), m.Record.QueryShape)
			enc.resetTable()
			var tag uint64
			if m.Record.Sample != nil {
				tag = maxNumber << 1
			}
			body = enc.instanceBody(binary.AppendUvarint(body, maxNumber), m.Record, tag)
			if bound := recordBound(m.Record); int64(len(body)) > bound {
				t.Errorf("%s: shape and record bodies %d bytes, bound %d", name, len(body), bound)
			}
		}
	}
}

// TestOversizedWritesAreRefusedBeforeTheyApply: a write the log or a
// snapshot could not hold must not reach memory or the bus either, whichever
// method it arrives through.
func TestOversizedWritesAreRefusedBeforeTheyApply(t *testing.T) {
	store := NewStore()
	emitted := 0
	store.SetLog(&fakeLog{append: func(*Mutation) error { emitted++; return nil }})
	huge := strings.Repeat("x", MaxRecordBytes)
	alice := Principal{User: "alice"}
	newRec := func(text string) *QueryRecord {
		return &QueryRecord{QueryShape: &QueryShape{Text: text, Canonical: "c"}, User: "alice"}
	}

	if id, err := store.Put(newRec(huge)); id != 0 || !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Put of a %d-byte text = %d, %v; want no ID and ErrTooLarge", len(huge), id, err)
	}
	ids, errs := store.PutBatch([]*QueryRecord{newRec("a"), newRec(huge), newRec("b"), newRec(huge)})
	if len(ids) != 4 || ids[0] != 1 || ids[1] != 0 || ids[2] != 2 || ids[3] != 0 {
		t.Fatalf("PutBatch ids = %v, want [1 0 2 0]", ids)
	}
	if len(errs) != 4 || errs[0] != nil || !errors.Is(errs[1], ErrTooLarge) || errs[2] != nil || !errors.Is(errs[3], ErrTooLarge) {
		t.Fatalf("PutBatch errs = %v, want ErrTooLarge for records 1 and 3 only", errs)
	}
	if store.Count() != 2 || emitted != 2 {
		t.Fatalf("%d records stored, %d mutations emitted; want 2 and 2", store.Count(), emitted)
	}

	// Each annotation fits on its own; the record they would add up to does not.
	third := strings.Repeat("y", MaxRecordBytes/3)
	for i := 0; i < 2; i++ {
		if err := store.Annotate(1, alice, Annotation{Text: third}); err != nil {
			t.Fatalf("annotation %d: %v", i, err)
		}
	}
	before, _ := store.Snapshot().Get(1, alice)
	for name, err := range map[string]error{
		"the annotation that tips the record over": store.Annotate(1, alice, Annotation{Text: third}),
		"an annotation over the limit by itself":   store.Annotate(2, alice, Annotation{Text: huge}),
		"an invalid reason":                        store.MarkInvalid(2, huge),
		"a stats error":                            store.UpdateStats(2, RuntimeStats{Error: huge}),
		"an older build's set-sample":              applyOlder(store, olderSetSample(2, &OutputSample{Rows: [][]string{{huge}}})),
		"a replacement text":                       store.ReplaceText(2, newRec(huge)),
	} {
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: err = %v, want ErrTooLarge", name, err)
		}
	}
	after, _ := store.Snapshot().Get(1, alice)
	if after != before || len(after.Annotations) != 2 || emitted != 4 {
		t.Fatalf("a refused write left a trace: %d annotations, %d mutations emitted",
			len(after.Annotations), emitted)
	}
	if rec, _ := store.Snapshot().Get(2, alice); rec.Text != "b" || !rec.Valid || rec.Sample != nil || rec.Stats.Error != "" {
		t.Fatalf("record 2 changed: %+v", rec)
	}
}

// hostileCount returns a put payload that is well-formed up to one slice
// count and then claims n elements with only n bytes behind it. skip is how
// many nil slices come between the shape's Tables and the slice under test:
// 1 reaches Attributes, 2 Predicates.
func hostileCount(skip, n int) []byte {
	p := binary.AppendUvarint([]byte{PayloadFormat, opCodes[OpPut]}, hasShapedRecord)
	p = append(p, 0, 0, 0, 0)            // shape number 0 inline, Text, Canonical, Template
	p = append(p, make([]byte, 16)...)   // Fingerprint, ExactHash
	p = append(p, make([]byte, skip)...) // nil slices
	p = binary.AppendUvarint(p, uint64(n)+1)
	return append(p, make([]byte, n)...)
}

// TestCountCannotOutrunThePayload: a count is refused unless the bytes left
// could hold that many elements of the stated minimum size, so it can size an
// allocation. A count is written plus one; zero is a nil slice.
func TestCountCannotOutrunThePayload(t *testing.T) {
	for _, c := range []struct {
		in        []byte
		elemBytes int
		want      int
		fail      bool
	}{
		{[]byte{0}, 1, 0, false},
		{[]byte{4, 'a', 'b', 'c'}, 1, 3, false},
		{[]byte{4, 'a', 'b', 'c', 'd', 'e', 'f'}, 2, 3, false},
		{[]byte{4, 'a', 'b', 'c', 'd', 'e'}, 2, 0, true},
		{append(binary.AppendUvarint(nil, 1<<40+1), 'a', 'b'), 1, 0, true},
	} {
		d := decoder{r: wire.NewReader(c.in)}
		if got, _ := d.count(c.elemBytes); got != c.want || (d.r.Err() != nil) != c.fail {
			t.Errorf("count(%d) over % x = %d, %v; want %d, failing %v", c.elemBytes, c.in, got, d.r.Err(), c.want, c.fail)
		}
	}
}

// maxDecodeAmplification is the largest in-memory to encoded size ratio among
// the elements the decoder's counts are checked against (codec.go): a 24-byte
// slice header for a one-byte nil row.
const maxDecodeAmplification = 24

// TestDecodeCountsCannotAmplify: a count is checked against the fewest bytes
// its elements could take before anything is sized from it, so a CRC-valid
// but hostile payload costs a bounded multiple of its own size — not the
// hundred-fold a 104-byte PredicateRow per claimed byte would.
func TestDecodeCountsCannotAmplify(t *testing.T) {
	const n = 1 << 20
	for name, skip := range map[string]int{"attributes": 1, "predicates": 2} {
		p := hostileCount(skip, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := DecodeMutation(p)
		runtime.ReadMemStats(&after)
		if err == nil || m != nil {
			t.Fatalf("%s: a count of %d over %d bytes decoded", name, n, n)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(maxDecodeAmplification*len(p)); got > limit {
			t.Errorf("%s: decoding a %d-byte payload allocated %d bytes, over %dx its size", name, len(p), got, maxDecodeAmplification)
		}
	}
	// The same shape with a count its bytes can hold is a legitimate slice of
	// empty strings, and still within the ratio.
	p := hostileCount(0, n) // Tables
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _ = DecodeMutation(p) // fails later, at the truncated tail
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(maxDecodeAmplification*len(p)); got > limit {
		t.Errorf("tables: decoding a %d-byte payload allocated %d bytes, over %dx its size", len(p), got, maxDecodeAmplification)
	}
}
