package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sql"
)

// checkShapes is the shape dictionary's leak check: it holds exactly the
// distinct shapes of the live records, each holding the IDs of its records
// (so len(ids) counts them) and its lower-cased keys, no two of one text
// equal, and every record points at a shape the dictionary holds.
func checkShapes(t *testing.T, s *Store) {
	t.Helper()
	checkDictionary(t, s, true)
}

// checkDictionary is checkShapes with the check for two equal shapes left to
// the caller: a log that overlaps its snapshot may define a shape under its
// own number while an equal one is live under another. It checks both
// dictionaries' numbers (checkDict) and the samples (checkSampleDictionary).
func checkDictionary(t testing.TB, s *Store, distinct bool) {
	t.Helper()
	ids := map[*QueryShape][]QueryID{}
	samples := map[*OutputSample]int{}
	s.Snapshot().scanAll(func(rec *QueryRecord) bool {
		ids[rec.QueryShape] = append(ids[rec.QueryShape], rec.ID)
		if rec.Sample != nil {
			samples[rec.Sample]++
		}
		return true
	})
	s.index.mu.RLock()
	defer s.index.mu.RUnlock()
	refs := map[*QueryShape]int{}
	for sh, recs := range ids {
		if refs[sh] = len(recs); !slices.Equal(sh.ids, recs) {
			t.Errorf("shape of %q holds IDs %v, %v point at it", sh.Text, sh.ids, recs)
		}
	}
	for _, sh := range s.index.shapes.byNum {
		if sh.text != strings.ToLower(sh.Text) || sh.canonical != strings.ToLower(sh.Canonical) {
			t.Errorf("shape of %q does not hold its lower-cased keys", sh.Text)
		}
	}
	checkDict(t, "shape", &s.index.shapes, refs, func(sh *QueryShape) int { return len(sh.ids) }, distinct)
	checkSampleDictionary(t, &s.index.samples, samples, distinct)
}

// shapeTexts repeat heavily. Two of them lower-case to the same strings but
// are different texts; the last does not parse.
var shapeTexts = []string{
	"SELECT temp FROM WaterTemp WHERE temp < 15",
	"select temp from watertemp where temp < 15",
	"SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x",
	"SELECT lake, AVG(temp) FROM WaterTemp GROUP BY lake",
	"SELECT city FROM CityLocations WHERE city IN (SELECT city FROM Cities)",
	"SELECT * FROM WaterTemp WHERE",
}

// freshRecord is what the front end derives for text today.
func freshRecord(text string) *QueryRecord {
	stmt, err := sql.Parse(text)
	if err != nil {
		return NewRawRecord(text, err)
	}
	return NewRecord(stmt, text)
}

// deepValue is an owned copy of a record's value that keeps nil and empty
// slices apart, as the codec does: the oracle's copy of what was put.
func deepValue(rec *QueryRecord) *QueryRecord {
	out := *rec
	sh := rec.values()
	sh.Tables, sh.Attributes, sh.Predicates = slices.Clone(sh.Tables), slices.Clone(sh.Attributes), slices.Clone(sh.Predicates)
	sh.Aggregates, sh.GroupBy, sh.Features = slices.Clone(sh.Aggregates), slices.Clone(sh.GroupBy), slices.Clone(sh.Features)
	out.QueryShape = sh
	out.Annotations = slices.Clone(rec.Annotations)
	out.Sample = cloneSample(rec.Sample)
	return &out
}

// sameRecord compares two records field by field, shape and sample values
// included.
func sameRecord(a, b *QueryRecord) bool {
	ra, rb := *a, *b
	ra.QueryShape, rb.QueryShape, ra.Sample, rb.Sample = nil, nil, nil, nil
	return reflect.DeepEqual(ra, rb) && reflect.DeepEqual(a.values(), b.values()) &&
		(a.Sample == nil) == (b.Sample == nil) && (a.Sample == nil || a.Sample.same(b.Sample))
}

// TestInterningEqualsUninternedOracle drives a history of heavily repeated
// texts — put, batch, the front end's shared-shape put, annotate, visibility,
// re-text, delete, and callers scribbling on their clones — and holds every
// store that took it to an oracle that never shares anything: the live store,
// a replay of its mutation stream, a snapshot restore and a follower
// bootstrapped from a mid-history snapshot plus the tail. Every record equals
// the oracle's field by field, every shape still equals what the front end
// derives for its text (nobody wrote through a shared one), and each
// dictionary holds exactly the shapes of its live records.
func TestInterningEqualsUninternedOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runInterningHistory(t, rand.New(rand.NewSource(seed)))
		})
	}
}

func runInterningHistory(t *testing.T, rng *rand.Rand) {
	s, replica, follower := NewStore(), NewStore(), (*Store)(nil)
	apply := func(to *Store, m *Mutation) {
		payload, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := DecodeMutation(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := to.Apply(replayed); err != nil {
			t.Fatalf("replaying %s: %v", m.Op, err)
		}
	}
	s.SetLog(&fakeLog{append: func(m *Mutation) error {
		apply(replica, m)
		if follower != nil {
			apply(follower, m)
		}
		return nil
	}})

	oracle := map[QueryID]*QueryRecord{}
	// altered marks records whose shape differs from what the front end
	// derives today, as one written by an older analyzer does.
	altered := map[QueryID]bool{}
	var ids []QueryID
	pick := func() QueryID { return ids[rng.Intn(len(ids))] }
	tick := time.Unix(1700000000, 0).UTC()
	newRecord := func() (*QueryRecord, bool) {
		rec := freshRecord(shapeTexts[rng.Intn(len(shapeTexts))])
		old := false
		switch rng.Intn(8) {
		case 0:
			rec.Features, old = append(slices.Clone(rec.Features), "analyzer:older"), true
		case 1:
			if rec.GroupBy == nil {
				rec.GroupBy = []string{}
			} else {
				rec.GroupBy = nil
			}
			old = true
		}
		rec.User = []string{"alice", "bob"}[rng.Intn(2)]
		rec.Visibility = Visibility(rng.Intn(3))
		tick = tick.Add(time.Minute)
		rec.IssuedAt = tick
		rec.Sample = answer(rng)
		return rec, old
	}
	stored := func(rec *QueryRecord, old bool, id QueryID) {
		want := deepValue(rec)
		want.ID, want.Valid = id, rec.InvalidReason == ""
		oracle[id], altered[id] = want, old
		ids = append(ids, id)
	}

	for step := 0; step < 300; step++ {
		if step == 150 {
			follower = snapshotRestore(t, s)
		}
		op := rng.Intn(11)
		if len(ids) < 3 {
			op = 0
		}
		switch op {
		case 0, 1:
			rec, old := newRecord()
			value := deepValue(rec)
			id := mustPut(t, s, rec)
			stored(value, old, id)
		case 2:
			recs := make([]*QueryRecord, 2+rng.Intn(4))
			values, olds := make([]*QueryRecord, len(recs)), make([]bool, len(recs))
			for i := range recs {
				recs[i], olds[i] = newRecord()
				values[i] = deepValue(recs[i])
			}
			for i, id := range mustPutBatch(t, s, recs) {
				stored(values[i], olds[i], id)
			}
		case 3: // the front end: a shape from the store, when it holds the text
			text := shapeTexts[rng.Intn(len(shapeTexts)-1)]
			stmt, err := sql.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			rec := &QueryRecord{QueryShape: s.ShapeOf(stmt, text), Valid: true, User: "carol", IssuedAt: tick}
			value := deepValue(rec)
			id := mustPut(t, s, rec)
			stored(value, false, id)
		case 4: // a caller re-logging a stored record: its shape is the store's
			id := pick()
			cur, err := s.Snapshot().Get(id, admin)
			if err != nil {
				t.Fatal(err)
			}
			cp := *cur
			cp.ID, cp.Annotations = 0, nil
			value := deepValue(&cp)
			stored(value, altered[id], mustPut(t, s, &cp))
		case 5:
			id := pick()
			ann := Annotation{Author: "root", Text: fmt.Sprint("note ", step), At: tick}
			if err := s.Annotate(id, admin, ann); err != nil {
				t.Fatal(err)
			}
			oracle[id].Annotations = append(oracle[id].Annotations, ann)
		case 6:
			id, v := pick(), Visibility(rng.Intn(3))
			if err := s.SetVisibility(id, admin, v); err != nil {
				t.Fatal(err)
			}
			oracle[id].Visibility = v
		case 7:
			id := pick()
			updated, old := newRecord()
			value := deepValue(updated)
			if err := s.ReplaceText(id, updated); err != nil {
				t.Fatal(err)
			}
			oracle[id].QueryShape, altered[id] = value.QueryShape, old
		case 8:
			i := rng.Intn(len(ids))
			if err := s.Delete(ids[i], admin); err != nil {
				t.Fatal(err)
			}
			delete(oracle, ids[i])
			ids = append(ids[:i], ids[i+1:]...)
		case 9: // an older build's set-sample, replayed by the upgrade into every store
			id, sm := pick(), answer(rng)
			for _, to := range []*Store{s, replica, follower} {
				if to == nil {
					continue
				}
				if err := applyOlder(to, olderSetSample(id, sm)); err != nil {
					t.Fatalf("replaying a set-sample: %v", err)
				}
			}
			oracle[id].Sample = cloneSample(sm)
		default: // a caller's clone is its own to write
			c, err := s.Get(pick(), admin)
			if err != nil {
				t.Fatal(err)
			}
			c.Text = "scribbled"
			if len(c.Tables) > 0 {
				c.Tables[0] = "Scribbled"
			}
			if len(c.Features) > 0 {
				c.Features[0] = "scribbled"
			}
		}
	}

	for _, path := range []struct {
		name  string
		store *Store
	}{
		{"live", s},
		{"replay", replica},
		{"snapshot restore", snapshotRestore(t, s)},
		{"follower bootstrap", follower},
	} {
		if got := path.store.Count(); got != len(oracle) {
			t.Errorf("%s: %d records, the oracle %d", path.name, got, len(oracle))
		}
		distinct := []*QueryShape{}
		path.store.Snapshot().scanAll(func(rec *QueryRecord) bool {
			want := oracle[rec.ID]
			if want == nil || !sameRecord(rec, want) {
				t.Errorf("%s: record %d\n got: %+v %+v\nwant: %+v", path.name, rec.ID, rec, rec.values(), want)
				return true
			}
			if fresh := freshRecord(rec.Text); !altered[rec.ID] && !reflect.DeepEqual(rec.values(), fresh.values()) {
				t.Errorf("%s: record %d's shape no longer equals its text's derivation", path.name, rec.ID)
			}
			if !slices.ContainsFunc(distinct, func(sh *QueryShape) bool { return sh.same(rec.QueryShape) }) {
				distinct = append(distinct, rec.QueryShape)
			}
			return true
		})
		if got := path.store.ShapeCount(); got != len(distinct) {
			t.Errorf("%s: %d shapes held for %d distinct shapes", path.name, got, len(distinct))
		}
		if got, want := path.store.SampleCount(), distinctSamples(path.store); got != want {
			t.Errorf("%s: %d samples held for %d distinct samples", path.name, got, want)
		}
		checkShapes(t, path.store)
		checkTextIndex(t, path.store)
		checkSameNumbers(t, path.name, path.store, s)
	}

	// Deleting every record empties the dictionary and its postings.
	for _, id := range ids {
		if err := s.Delete(id, admin); err != nil {
			t.Fatal(err)
		}
	}
	if shapes, trigrams := s.ShapeCount(), s.SearchIndexSize(); shapes != 0 || trigrams != 0 || len(s.index.shapes.byKey) != 0 || len(s.index.byTable) != 0 {
		t.Errorf("emptied store holds %d shapes, %d trigrams and %d tables", shapes, trigrams, len(s.index.byTable))
	}
}

// snapshotRestore is what a snapshot and its restore do to a store: encode
// its shapes and records into chunks, decode them and restore a new store
// from them.
func snapshotRestore(t *testing.T, s *Store) *Store {
	t.Helper()
	st, err := snapshotPayloads(s.CaptureState(nil), 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	return restored
}

// snapshotPayloads sends a captured state through the snapshot payloads: the
// header, then shape and record chunks closed at limit bytes, each decoded
// into a staged state.
func snapshotPayloads(st *StoreState, limit int) (*StoreState, error) {
	h, err := DecodeSnapshotHeader(new(Encoder).AppendSnapshotHeader(nil, st))
	if err != nil {
		return nil, err
	}
	out := &StoreState{NextID: h.NextID, NextShape: h.NextShape, NextSample: h.NextSample}
	var e Encoder
	for rest := st.Shapes; len(rest) > 0; {
		chunk, n := e.AppendShapeChunk(nil, rest, limit)
		if err := DecodeShapeChunk(chunk, out); err != nil {
			return nil, err
		}
		rest = rest[n:]
	}
	for rest := st.Records; len(rest) > 0; {
		chunk, n := e.AppendRecordChunk(nil, rest, limit)
		if err := DecodeRecordChunk(chunk, out); err != nil {
			return nil, err
		}
		rest = rest[n:]
	}
	if len(out.Shapes) != h.Shapes || len(out.Records) != h.Records {
		return nil, fmt.Errorf("decoded %d shapes and %d records, the header announced %d and %d", len(out.Shapes), len(out.Records), h.Shapes, h.Records)
	}
	return out, nil
}

// TestSameTextDifferentFeaturesStayDistinct: a record adopts a shape only
// when every value is equal. One whose features an older analyzer extracted,
// or whose empty slice is nil in the other, keeps a shape of its own, and
// the front end is only handed a shape equal to its own derivation.
func TestSameTextDifferentFeaturesStayDistinct(t *testing.T) {
	const text = "SELECT temp FROM WaterTemp WHERE temp < 15"
	s := NewStore()
	older := freshRecord(text)
	older.Features = []string{"table:watertemp"}
	emptied := freshRecord(text)
	emptied.GroupBy = []string{}
	a := mustPut(t, s, freshRecord(text))
	b := mustPut(t, s, older)
	c := mustPut(t, s, emptied)
	d := mustPut(t, s, freshRecord(text))
	v := s.Snapshot()
	ra, _ := v.Get(a, admin)
	rb, _ := v.Get(b, admin)
	rc, _ := v.Get(c, admin)
	rd, _ := v.Get(d, admin)
	if ra.QueryShape != rd.QueryShape || ra.QueryShape == rb.QueryShape || ra.QueryShape == rc.QueryShape || rb.QueryShape == rc.QueryShape {
		t.Fatal("records share a shape exactly when their values are equal: a=d, and b, c apart")
	}
	if !slices.Equal(rb.Features, []string{"table:watertemp"}) || rc.GroupBy == nil || ra.GroupBy != nil {
		t.Errorf("interning changed a value: %q, %#v, %#v", rb.Features, rc.GroupBy, ra.GroupBy)
	}
	if n := s.ShapeCount(); n != 3 {
		t.Errorf("ShapeCount = %d, want 3", n)
	}
	// The front end is handed the stored shape equal to its derivation, and
	// never the older analyzer's or the emptied one.
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := s.ShapeOf(stmt, text); got != ra.QueryShape {
			t.Fatalf("ShapeOf call %d did not hand out the stored equal shape", i)
		}
	}
	// A shape whose last record went is dropped: ShapeOf derives anew, and
	// the derivation it puts is what it hands out next.
	for _, id := range []QueryID{a, d} {
		if err := s.Delete(id, admin); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.ShapeCount(); n != 2 {
		t.Errorf("ShapeCount after deleting a shape's records = %d, want 2", n)
	}
	derived := s.ShapeOf(stmt, text)
	if derived == ra.QueryShape || derived == rb.QueryShape || derived == rc.QueryShape || !derived.same(ra.QueryShape) {
		t.Fatal("ShapeOf handed out a shape the front end did not derive")
	}
	e := mustPut(t, s, &QueryRecord{QueryShape: derived, Valid: true})
	if got := s.ShapeOf(stmt, text); got != derived {
		t.Error("ShapeOf missed the shape it derived")
	}
	// A writer still holding a dropped shape gets a copy interned, never the
	// dropped shape re-keyed.
	if err := s.Delete(e, admin); err != nil {
		t.Fatal(err)
	}
	f := mustPut(t, s, &QueryRecord{QueryShape: ra.QueryShape, Valid: true})
	rf, _ := s.Snapshot().Get(f, admin)
	if rf.QueryShape == ra.QueryShape || !rf.QueryShape.same(ra.QueryShape) {
		t.Error("a dropped shape came back into the dictionary")
	}
	checkShapes(t, s)
	checkTextIndex(t, s)
}

// TestSharedShapesUnderConcurrentWrites races the front end's path — ShapeOf,
// then Put — against deletes, re-texts and readers of the shared shapes; run
// it under -race. The dictionary ends holding exactly the live shapes.
func TestSharedShapesUnderConcurrentWrites(t *testing.T) {
	s := NewStore()
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []QueryID
			for i := 0; i < 400; i++ {
				text := shapeTexts[rng.Intn(len(shapeTexts)-1)]
				switch op := rng.Intn(5); {
				case op < 3 || len(mine) == 0:
					stmt, err := sql.Parse(text)
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, mustPut(t, s, &QueryRecord{QueryShape: s.ShapeOf(stmt, text), Valid: true}))
				case op == 3:
					j := rng.Intn(len(mine))
					if err := s.Delete(mine[j], admin); err != nil {
						t.Error(err)
					}
					mine = append(mine[:j], mine[j+1:]...)
				default:
					if err := s.ReplaceText(mine[rng.Intn(len(mine))], freshRecord(text)); err != nil {
						t.Error(err)
					}
				}
			}
		}(int64(w))
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Snapshot().Scan(admin, func(rec *QueryRecord) bool {
					_ = rec.LowerText() != "" && len(rec.Tables) >= 0
					return true
				})
				s.ShapeCount()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	checkShapes(t, s)
	checkTextIndex(t, s)
}

// checkSameNumbers holds a store rebuilt from the log to the numbers the live
// store gave its shapes and samples: every record's shape and sample number
// and both counters.
func checkSameNumbers(t testing.TB, name string, got, want *Store) {
	t.Helper()
	want.Snapshot().scanAll(func(rec *QueryRecord) bool {
		other, ok := got.loadRecord(rec.ID)
		if !ok || other.Number() != rec.Number() {
			t.Errorf("%s: query %d's shape is numbered %d, the live store's %d", name, rec.ID, other.Number(), rec.Number())
		} else if g, w := sampleNumber(other), sampleNumber(rec); g != w {
			t.Errorf("%s: query %d's sample is numbered %d, the live store's %d", name, rec.ID, g, w)
		}
		return true
	})
	if g, w := got.index.shapes.nextSeq, want.index.shapes.nextSeq; g != w {
		t.Errorf("%s: the shape counter reads %d, the live store's %d", name, g, w)
	}
	if g, w := got.index.samples.nextSeq, want.index.samples.nextSeq; g != w {
		t.Errorf("%s: the sample counter reads %d, the live store's %d", name, g, w)
	}
}

// logRecorder logs what a store emits as the WAL does: each mutation encoded
// right after it applied.
func logRecorder(t testing.TB, s *Store) *[][]byte {
	var payloads [][]byte
	s.SetLog(&fakeLog{append: func(m *Mutation) error {
		p, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
		return nil
	}})
	return &payloads
}

// frameShape reports how a logged put or replace-text carries its shape: the
// number it defines inline, or the number it refers to.
func frameShape(t testing.TB, p []byte) (inline, ref uint64) {
	t.Helper()
	m, err := DecodeMutation(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.shapeRef != 0 {
		return 0, m.shapeRef
	}
	return m.Record.Number(), 0
}

// TestShapeNumbersInTheLog: the put or replace-text that enters a shape
// defines it inline under its number, every later one refers to it, a shape
// that left with its last record is entered again under a new number, and a
// replay numbers every shape as the live store did.
func TestShapeNumbersInTheLog(t *testing.T) {
	s := NewStore()
	log := logRecorder(t, s)
	x, y, z := shapeTexts[0], shapeTexts[2], shapeTexts[3]
	a := mustPut(t, s, freshRecord(x))
	b := mustPut(t, s, freshRecord(x))
	batch := mustPutBatch(t, s, []*QueryRecord{freshRecord(y), freshRecord(y)})
	for _, id := range []QueryID{a, b} {
		if err := s.Delete(id, admin); err != nil {
			t.Fatal(err)
		}
	}
	mustPut(t, s, freshRecord(x))
	if err := s.ReplaceText(batch[0], freshRecord(x)); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceText(batch[1], freshRecord(z)); err != nil {
		t.Fatal(err)
	}
	type form struct{ inline, ref uint64 }
	want := []form{{inline: 1}, {ref: 1}, {inline: 2}, {ref: 2}, {}, {}, {inline: 3}, {ref: 3}, {inline: 4}}
	if len(*log) != len(want) {
		t.Fatalf("%d frames logged, want %d", len(*log), len(want))
	}
	for i, p := range *log {
		if p[1] == 4 { // a delete
			continue
		}
		if inline, ref := frameShape(t, p); (form{inline, ref}) != want[i] {
			t.Errorf("frame %d carries inline %d, reference %d; want %+v", i, inline, ref, want[i])
		}
	}
	replica := NewStore()
	for _, p := range *log {
		m, err := DecodeMutation(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	checkShapes(t, replica)
	checkSameNumbers(t, "replay", replica, s)
}

// TestUnresolvableShapesAreRefused: a frame whose shape number the store
// cannot resolve — a reference read before its definition, a reference to a
// shape that left, a definition whose number a shape with other values holds
// — is an error naming the number, from Apply, and changes nothing. A definition whose number holds an equal shape is taken as
// the same shape, as a replay that overlaps its snapshot needs.
func TestUnresolvableShapesAreRefused(t *testing.T) {
	s := NewStore()
	log := logRecorder(t, s)
	mustPut(t, s, freshRecord(shapeTexts[0]))
	mustPut(t, s, freshRecord(shapeTexts[0]))
	id := mustPut(t, s, freshRecord(shapeTexts[2]))
	if err := s.ReplaceText(id, freshRecord(shapeTexts[0])); err != nil {
		t.Fatal(err)
	}
	define, refer, retext := (*log)[0], (*log)[1], (*log)[3]
	apply := func(to *Store, p []byte) error {
		m, err := DecodeMutation(p)
		if err != nil {
			t.Fatal(err)
		}
		return to.Apply(m)
	}

	fresh := NewStore()
	if err := apply(fresh, refer); !errors.Is(err, ErrUnknownShape) || !strings.Contains(err.Error(), "shape 1") {
		t.Errorf("a reference before its definition: %v", err)
	}
	if fresh.Count() != 0 || fresh.ShapeCount() != 0 {
		t.Fatalf("a refused reference left %d records and %d shapes", fresh.Count(), fresh.ShapeCount())
	}

	// Defined, then gone with its last record: a later reference dangles.
	if err := apply(fresh, define); err != nil {
		t.Fatal(err)
	}
	if err := apply(fresh, define); err != nil || fresh.ShapeCount() != 1 {
		t.Fatalf("the same definition again: %v, %d shapes", err, fresh.ShapeCount())
	}
	if rec, _ := fresh.loadRecord(1); rec.Number() != 1 || fresh.index.shapes.byNum[1] != rec.QueryShape {
		t.Fatalf("the same definition again over the only record of shape 1 numbered it %d", rec.Number())
	}
	if err := fresh.Apply(&Mutation{Op: OpDelete, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := apply(fresh, refer); !errors.Is(err, ErrUnknownShape) {
		t.Errorf("a reference to a shape that left: %v", err)
	}

	// Number 1 defined again with other values while it is live.
	if err := apply(fresh, define); err != nil {
		t.Fatal(err)
	}
	other := &Mutation{Op: OpPut, Record: freshRecord(shapeTexts[3])}
	other.Record.ID, other.Record.seq = 7, 1
	p, err := other.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := apply(fresh, p); !errors.Is(err, ErrUnknownShape) || !strings.Contains(err.Error(), "shape 1") {
		t.Errorf("a definition of a live number with other values: %v", err)
	}
	m, err := DecodeMutation(retext)
	if err != nil {
		t.Fatal(err)
	}
	m.ID, m.shapeRef = 1, 9
	if err := fresh.Apply(m); !errors.Is(err, ErrUnknownShape) || !strings.Contains(err.Error(), "shape 9") {
		t.Errorf("a replace-text referring to no live shape: %v", err)
	}
	if fresh.Count() != 1 {
		t.Fatalf("a refused definition left %d records", fresh.Count())
	}
	checkShapes(t, fresh)

	// RestoreState takes no shape a store holds. (The snapshot reader
	// enforces the format's number rules.)
	if err := fresh.RestoreState(s.CaptureState(nil)); err == nil {
		t.Error("a captured state restored")
	}
	if fresh.Count() != 1 {
		t.Fatalf("a refused restore left %d records", fresh.Count())
	}
}
