package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/sql"
)

// checkShapes is the shape dictionary's leak check: it holds exactly the
// distinct shapes of the live records, each counting its records, no two of
// one text equal, and every record points at a shape the dictionary holds.
func checkShapes(t *testing.T, s *Store) {
	t.Helper()
	refs := map[*QueryShape]int{}
	s.Snapshot().scanAll(func(rec *QueryRecord) bool {
		refs[rec.QueryShape]++
		return true
	})
	s.text.mu.RLock()
	defer s.text.mu.RUnlock()
	n := 0
	for text, list := range s.text.shapes {
		for i, sh := range list {
			n++
			if sh.Text != text || !sh.interned || sh.entry != s.text.entries[sh.entry.textKey] {
				t.Errorf("shape of %q filed under %q does not point at its dictionary entry", sh.Text, text)
			}
			if refs[sh] != int(sh.refs) || sh.refs == 0 {
				t.Errorf("shape of %q counts %d records, %d point at it", text, sh.refs, refs[sh])
			}
			delete(refs, sh)
			for _, other := range list[:i] {
				if sameShape(sh, other) {
					t.Errorf("two equal shapes of %q", text)
				}
			}
		}
	}
	for sh, n := range refs {
		t.Errorf("%d records point at a shape of %q the dictionary does not hold", n, sh.Text)
	}
	if n != s.text.nshapes {
		t.Errorf("the dictionary counts %d shapes and holds %d", s.text.nshapes, n)
	}
}

// shapeTexts repeat heavily. Two of them lower-case to one search entry but
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
	return &out
}

// sameRecord compares two records field by field, shape values included.
func sameRecord(a, b *QueryRecord) bool {
	ra, rb := *a, *b
	ra.QueryShape, rb.QueryShape = nil, nil
	return reflect.DeepEqual(ra, rb) && reflect.DeepEqual(a.values(), b.values())
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
	s.SetMutationHook(func(m *Mutation) error {
		apply(replica, m)
		if follower != nil {
			apply(follower, m)
		}
		return nil
	})

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
		op := rng.Intn(10)
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
			if !slices.ContainsFunc(distinct, func(sh *QueryShape) bool { return sameShape(sh, rec.QueryShape) }) {
				distinct = append(distinct, rec.QueryShape)
			}
			return true
		})
		if got := path.store.ShapeCount(); got != len(distinct) {
			t.Errorf("%s: %d shapes held for %d distinct shapes", path.name, got, len(distinct))
		}
		checkShapes(t, path.store)
		checkTextIndex(t, path.store)
	}

	// Deleting every record empties both dictionaries.
	for _, id := range ids {
		if err := s.Delete(id, admin); err != nil {
			t.Fatal(err)
		}
	}
	if shapes, texts := s.ShapeCount(), len(s.text.entries); shapes != 0 || texts != 0 || len(s.text.shapes) != 0 {
		t.Errorf("emptied store holds %d shapes and %d search entries", shapes, texts)
	}
}

// snapshotRestore is what a snapshot and its restore do to a store: encode
// every record into chunks, decode them and restore a new store from them.
func snapshotRestore(t *testing.T, s *Store) *Store {
	t.Helper()
	st, _ := s.CaptureWithCheckpoints(nil)
	var e Encoder
	var decoded []*QueryRecord
	for rest := st.Records; len(rest) > 0; {
		chunk, n := e.AppendRecordChunk(nil, rest, 4<<10)
		var err error
		if decoded, err = DecodeRecordChunk(chunk, decoded); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	restored := NewStore()
	restored.RestoreStateWithCheckpoints(&StoreState{NextID: st.NextID, Records: decoded}, nil)
	return restored
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
	if derived == ra.QueryShape || derived == rb.QueryShape || derived == rc.QueryShape || !sameShape(derived, ra.QueryShape) {
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
	if rf.QueryShape == ra.QueryShape || !sameShape(rf.QueryShape, ra.QueryShape) {
		t.Error("a dropped shape came back into the dictionary")
	}
	checkShapes(t, s)
	checkTextIndex(t, s)
}

// TestNestedIsComputedOncePerShape: the nested flag parses the text on first
// use and is shared by every record of the shape.
func TestNestedIsComputedOncePerShape(t *testing.T) {
	s := NewStore()
	nested := "SELECT city FROM CityLocations WHERE city IN (SELECT city FROM Cities)"
	a := mustPut(t, s, freshRecord(nested))
	b := mustPut(t, s, freshRecord(nested))
	flat := mustPut(t, s, freshRecord("SELECT city FROM CityLocations"))
	raw := mustPut(t, s, freshRecord("SELECT * FROM WaterTemp WHERE"))
	v := s.Snapshot()
	ra, _ := v.Get(a, admin)
	rb, _ := v.Get(b, admin)
	rflat, _ := v.Get(flat, admin)
	rraw, _ := v.Get(raw, admin)
	if !ra.Nested() || rflat.Nested() || rraw.Nested() {
		t.Errorf("Nested = %v, %v, %v; want true, false, false", ra.Nested(), rflat.Nested(), rraw.Nested())
	}
	if ra.QueryShape != rb.QueryShape || !rb.Nested() {
		t.Error("records of one text do not share the nested flag")
	}
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
					_ = rec.Nested() && rec.LowerText() != "" && len(rec.Tables) >= 0
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
