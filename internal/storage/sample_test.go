package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// answer is an output sample as the profiler logs one: a few values that
// repeat heavily, two pairs that differ only by a nil against an empty slice
// (equal content hashes, unequal values), or none.
func answer(rng *rand.Rand) *OutputSample {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return &OutputSample{Columns: []string{}, Rows: [][]string{}}
	case 2:
		return &OutputSample{Columns: []string{}}
	case 3:
		return &OutputSample{Columns: []string{"lake"}, Rows: [][]string{{"Union"}, nil, {}}, TotalRows: 3}
	case 4:
		return &OutputSample{Columns: []string{"lake"}, Rows: [][]string{{"Union"}, {}, nil}, TotalRows: 3}
	default:
		return &OutputSample{Columns: []string{"n"}, Rows: [][]string{{fmt.Sprint(rng.Intn(20))}}, TotalRows: 1, Truncated: rng.Intn(2) == 0}
	}
}

// cloneSample is an owned copy of a sample's value, nil and empty slices
// kept apart.
func cloneSample(sm *OutputSample) *OutputSample {
	if sm == nil {
		return nil
	}
	out := &OutputSample{Columns: slices.Clone(sm.Columns), TotalRows: sm.TotalRows, Truncated: sm.Truncated}
	if sm.Rows != nil {
		out.Rows = make([][]string, len(sm.Rows))
		for i, row := range sm.Rows {
			out.Rows[i] = slices.Clone(row)
		}
	}
	return out
}

func sampleNumber(rec *QueryRecord) uint64 {
	if rec.Sample == nil {
		return 0
	}
	return rec.Sample.Number()
}

// distinctSamples counts the distinct sample values of a store's records.
func distinctSamples(s *Store) int {
	var distinct []*OutputSample
	s.Snapshot().scanAll(func(rec *QueryRecord) bool {
		if sm := rec.Sample; sm != nil && !slices.ContainsFunc(distinct, func(d *OutputSample) bool { return d.same(sm) }) {
			distinct = append(distinct, sm)
		}
		return true
	})
	return len(distinct)
}

// checkSampleDictionary is the sample dictionary's check (checkDict, with
// refs the records pointing at each sample) plus the content hash: each live
// sample carries the hash its values have. Callers hold index.mu.
func checkSampleDictionary(t testing.TB, d *dict[uint64, *OutputSample], refs map[*OutputSample]int, distinct bool) {
	t.Helper()
	for num, sm := range d.byNum {
		fresh := sm.values()
		fresh.hash = 0
		if fresh.prepare(); fresh.hash != sm.hash {
			t.Errorf("sample %d carries hash %#x, its content hashes to %#x", num, sm.hash, fresh.hash)
		}
	}
	checkDict(t, "sample", d, refs, func(sm *OutputSample) int { return int(sm.refs) }, distinct)
}

// sampledRecord is a record of text answering v.
func sampledRecord(text, v string) *QueryRecord {
	rec := freshRecord(text)
	rec.Sample = &OutputSample{Columns: []string{"v"}, Rows: [][]string{{v}}, TotalRows: 1}
	return rec
}

// frameSample reports how a logged put carries its sample: the number it
// defines inline (0 for none, or for one without a number), or the number it
// refers to.
func frameSample(t testing.TB, p []byte) (inline, ref uint64) {
	t.Helper()
	m, err := DecodeMutation(p)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case m.sampleRef != 0:
		return 0, m.sampleRef
	case m.Record == nil: // a delete
		return 0, 0
	}
	return sampleNumber(m.Record), 0
}

// TestSampleNumbersInTheLog: the put that enters a sample defines it inline
// under its number and every later one refers to it, within a batch too; a
// sample that left with its last record is entered again under a new number;
// a replace-text logs no sample and leaves the record's as it was; an older
// build's set-sample, replayed by the upgrade, moves a record to the sample
// it carries, and one that carries the value a record's only sample holds
// keeps its number. A replay
// numbers every sample as the live store did, and a snapshot restore takes
// the counter past a number that left.
func TestSampleNumbersInTheLog(t *testing.T) {
	s := NewStore()
	log := logRecorder(t, s)
	x, y := shapeTexts[0], shapeTexts[2]
	a := mustPut(t, s, sampledRecord(x, "a"))
	b := mustPut(t, s, sampledRecord(y, "a"))
	mustPutBatch(t, s, []*QueryRecord{sampledRecord(x, "b"), sampledRecord(x, "b")})
	mustPut(t, s, freshRecord(x))
	for _, id := range []QueryID{a, b} {
		if err := s.Delete(id, admin); err != nil {
			t.Fatal(err)
		}
	}
	c := mustPut(t, s, sampledRecord(y, "a"))
	if err := s.ReplaceText(c, freshRecord(x)); err != nil {
		t.Fatal(err)
	}
	type form struct{ inline, ref uint64 }
	want := []form{{inline: 1}, {ref: 1}, {inline: 2}, {ref: 2}, {}, {}, {}, {inline: 3}, {}}
	if len(*log) != len(want) {
		t.Fatalf("%d frames logged, want %d", len(*log), len(want))
	}
	for i, p := range *log {
		if inline, ref := frameSample(t, p); (form{inline, ref}) != want[i] {
			t.Errorf("frame %d carries sample inline %d, reference %d; want %+v", i, inline, ref, want[i])
		}
	}
	if rec, _ := s.loadRecord(c); sampleNumber(rec) != 3 || s.SampleCount() != 2 {
		t.Fatalf("after the replace-text query %d has sample %d, and the store %d samples", c, sampleNumber(rec), s.SampleCount())
	}

	replica := NewStore()
	for _, p := range *log {
		if err := replica.Apply(mustDecode(t, p)); err != nil {
			t.Fatal(err)
		}
	}
	checkShapes(t, replica)
	checkSameNumbers(t, "replay", replica, s)

	// The set-sample an older build logged: query c moves to the sample
	// equal to the one it carries ("b", number 2) and its own leaves.
	for _, to := range []*Store{s, replica} {
		if err := applyOlder(to, olderSetSample(c, &OutputSample{Columns: []string{"v"}, Rows: [][]string{{"b"}}, TotalRows: 1})); err != nil {
			t.Fatal(err)
		}
		if rec, _ := to.loadRecord(c); sampleNumber(rec) != 2 || to.SampleCount() != 1 {
			t.Fatalf("the set-sample left query %d on sample %d, and %d samples", c, sampleNumber(rec), to.SampleCount())
		}
		checkShapes(t, to)
	}
	d := mustPut(t, s, sampledRecord(x, "d"))
	if err := applyOlder(s, olderSetSample(d, &OutputSample{Columns: []string{"v"}, Rows: [][]string{{"d"}}, TotalRows: 1})); err != nil {
		t.Fatal(err)
	}
	if rec, _ := s.loadRecord(d); sampleNumber(rec) != 4 {
		t.Fatalf("a set-sample onto the value of its record's only sample renumbered it %d, want 4", sampleNumber(rec))
	}
	if err := s.Delete(d, admin); err != nil {
		t.Fatal(err)
	}
	checkSameNumbers(t, "snapshot restore", snapshotRestore(t, s), s)
}

func mustDecode(t testing.TB, p []byte) *Mutation {
	t.Helper()
	m, err := DecodeMutation(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestUnresolvableSamplesAreRefused: a frame whose sample number the store
// cannot resolve — a reference read before its definition, a reference to a
// sample that left, a definition whose number a sample with other values
// holds — is an error naming the number, from Apply, and changes nothing. A definition whose number holds an equal sample is
// the same sample, as a replay that overlaps its snapshot needs, even when
// it re-puts that sample's only record.
func TestUnresolvableSamplesAreRefused(t *testing.T) {
	s := NewStore()
	log := logRecorder(t, s)
	mustPut(t, s, sampledRecord(shapeTexts[0], "a"))
	mustPut(t, s, sampledRecord(shapeTexts[0], "a"))
	define, refer := (*log)[0], (*log)[1]

	fresh := NewStore()
	if err := fresh.Apply(mustDecode(t, refer)); !errors.Is(err, ErrUnknownSample) || !strings.Contains(err.Error(), "sample 1") {
		t.Errorf("a reference before its definition: %v", err)
	}
	if fresh.Count() != 0 || fresh.SampleCount() != 0 || fresh.ShapeCount() != 0 {
		t.Fatalf("a refused reference left %d records, %d samples and %d shapes", fresh.Count(), fresh.SampleCount(), fresh.ShapeCount())
	}

	// Defined, then gone with its last record: a later reference dangles.
	for i := 0; i < 2; i++ {
		if err := fresh.Apply(mustDecode(t, define)); err != nil {
			t.Fatal(err)
		}
	}
	if rec, _ := fresh.loadRecord(1); fresh.SampleCount() != 1 || sampleNumber(rec) != 1 || fresh.index.samples.byNum[1] != rec.Sample {
		t.Fatalf("the same definition again over the only record of sample 1: %d samples, numbered %d", fresh.SampleCount(), sampleNumber(rec))
	}
	if err := fresh.Apply(&Mutation{Op: OpDelete, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Apply(mustDecode(t, refer)); !errors.Is(err, ErrUnknownSample) {
		t.Errorf("a reference to a sample that left: %v", err)
	}

	// Number 1 defined again with other values while it is live.
	if err := fresh.Apply(mustDecode(t, define)); err != nil {
		t.Fatal(err)
	}
	other := sampledRecord(shapeTexts[0], "other")
	other.ID, other.Sample.seq = 7, 1
	p, err := (&Mutation{Op: OpPut, Record: other}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Apply(mustDecode(t, p)); !errors.Is(err, ErrUnknownSample) || !strings.Contains(err.Error(), "sample 1") {
		t.Errorf("a definition of a live number with other values: %v", err)
	}
	if fresh.Count() != 1 || fresh.SampleCount() != 1 {
		t.Fatalf("a refused definition left %d records and %d samples", fresh.Count(), fresh.SampleCount())
	}
	checkShapes(t, fresh)
}

// TestRepeatedAnswersShareOneSample: records answering alike point at one
// stored sample, which Clone shares; a sample held by another store is
// copied, never shared between dictionaries.
func TestRepeatedAnswersShareOneSample(t *testing.T) {
	s := NewStore()
	a := mustPut(t, s, sampledRecord(shapeTexts[0], "a"))
	b := mustPut(t, s, sampledRecord(shapeTexts[2], "a"))
	ra, _ := s.loadRecord(a)
	rb, _ := s.loadRecord(b)
	if ra.Sample != rb.Sample || s.SampleCount() != 1 {
		t.Fatalf("two equal answers are stored as %d samples", s.SampleCount())
	}
	c, err := s.Get(a, admin)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sample != ra.Sample {
		t.Error("Clone copied the immutable sample")
	}
	other := NewStore()
	mustPut(t, other, c)
	if rc, _ := other.loadRecord(1); rc.Sample == ra.Sample || !rc.Sample.same(ra.Sample) {
		t.Error("another store shares the sample this one holds")
	}
	checkShapes(t, s)
	checkShapes(t, other)
}
