package storage

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// checkTextIndex compares the secondary indexes with ones rebuilt from the
// stored records: the shape dictionary holds exactly the live records'
// shapes with their IDs (checkShapes), the trigram and by-table postings
// hold exactly the live shapes with the key (in creation order), and the
// by-user and annotated buckets hold exactly the live records' IDs.
func checkTextIndex(t *testing.T, s *Store) {
	t.Helper()
	checkShapes(t, s)
	wantUsers := map[string][]QueryID{}
	var wantAnnotated []QueryID
	s.Snapshot().scanAll(func(rec *QueryRecord) bool {
		wantUsers[rec.User] = append(wantUsers[rec.User], rec.ID)
		if len(rec.Annotations) > 0 {
			wantAnnotated = append(wantAnnotated, rec.ID)
		}
		return true
	})

	ix := &s.index
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	wantTrigrams := map[trigram][]*QueryShape{}
	wantTables := map[string][]*QueryShape{}
	for _, list := range ix.shapes {
		for _, sh := range list {
			for _, tg := range distinctTrigrams(sh.text, sh.canonical) {
				wantTrigrams[tg] = append(wantTrigrams[tg], sh)
			}
			tables := make([]string, len(sh.Tables))
			for i, name := range sh.Tables {
				tables[i] = strings.ToLower(name)
			}
			slices.Sort(tables)
			for _, name := range slices.Compact(tables) {
				wantTables[name] = append(wantTables[name], sh)
			}
		}
	}
	bySeq := func(a, b *QueryShape) int { return cmp.Compare(a.seq, b.seq) }
	if len(ix.trigrams) != len(wantTrigrams) {
		t.Errorf("trigram map holds %d keys, want %d", len(ix.trigrams), len(wantTrigrams))
	}
	for tg, want := range wantTrigrams {
		slices.SortFunc(want, bySeq)
		if !slices.Equal(ix.trigrams[tg], want) {
			t.Errorf("trigram %06x: %d shapes, want %d", tg, len(ix.trigrams[tg]), len(want))
		}
	}
	if len(ix.byTable) != len(wantTables) {
		t.Errorf("table map holds %d keys, want %d", len(ix.byTable), len(wantTables))
	}
	for name, want := range wantTables {
		slices.SortFunc(want, bySeq)
		if !slices.Equal(ix.byTable[name], want) {
			t.Errorf("table %q: %d shapes, want %d", name, len(ix.byTable[name]), len(want))
		}
	}
	if len(ix.byUser) != len(wantUsers) {
		t.Errorf("user map holds %d keys, want %d", len(ix.byUser), len(wantUsers))
	}
	for user, want := range wantUsers {
		if !slices.Equal(ix.byUser[user], want) {
			t.Errorf("user %q: postings %v, want %v", user, ix.byUser[user], want)
		}
	}
	if !slices.Equal(ix.annotated, wantAnnotated) {
		t.Errorf("annotated bucket %v, want %v", ix.annotated, wantAnnotated)
	}
}

func textRecord(text, canonical string) *QueryRecord {
	return &QueryRecord{QueryShape: &QueryShape{Text: text, Canonical: canonical}, User: "alice", Visibility: VisibilityPublic}
}

// TestTextIndexDropsEmptiedEntries is the white-box leak check: once the last
// record of a shape is deleted or re-texted, neither the dictionary nor any
// trigram bucket still refers to the shape, and an emptied index holds no key
// at all. Texts that differ only in case are two shapes.
func TestTextIndexDropsEmptiedEntries(t *testing.T) {
	s := NewStore()
	admin := Principal{Admin: true}
	a1 := mustPut(t, s, textRecord("SELECT a FROM T", "select a from t"))
	a2 := mustPut(t, s, textRecord("select A from t", "select a from t")) // same strings once lower-cased
	b := mustPut(t, s, textRecord("SELECT b FROM Zürich", "select b from zürich"))
	if err := s.Annotate(b, admin, Annotation{Text: "note"}); err != nil {
		t.Fatal(err)
	}
	checkTextIndex(t, s)
	if shapes, trigrams := s.ShapeCount(), s.SearchIndexSize(); shapes != 3 || trigrams == 0 {
		t.Fatalf("%d shapes, %d trigrams; want 3 shapes", shapes, trigrams)
	}

	if err := s.Delete(a1, admin); err != nil {
		t.Fatal(err)
	}
	checkTextIndex(t, s)
	if shapes := s.ShapeCount(); shapes != 2 {
		t.Fatalf("after deleting one of two case variants: %d shapes, want 2", shapes)
	}
	if err := s.Delete(a2, admin); err != nil {
		t.Fatal(err)
	}
	checkTextIndex(t, s)
	onlyB := len(distinctTrigrams("select b from zürich"))
	if shapes, trigrams := s.ShapeCount(), s.SearchIndexSize(); shapes != 1 || trigrams != onlyB {
		t.Fatalf("after deleting the last record of a text: %d shapes, %d trigrams; want 1, %d", shapes, trigrams, onlyB)
	}

	if err := s.ReplaceText(b, textRecord("SELECT c FROM T", "select c from t")); err != nil {
		t.Fatal(err)
	}
	checkTextIndex(t, s)
	onlyC := len(distinctTrigrams("select c from t"))
	if shapes, trigrams := s.ShapeCount(), s.SearchIndexSize(); shapes != 1 || trigrams != onlyC {
		t.Fatalf("after re-texting the last record of a text: %d shapes, %d trigrams; want 1, %d", shapes, trigrams, onlyC)
	}

	if err := s.Delete(b, admin); err != nil {
		t.Fatal(err)
	}
	if shapes, trigrams := s.ShapeCount(), s.SearchIndexSize(); shapes != 0 || trigrams != 0 || len(s.index.annotated) != 0 {
		t.Fatalf("emptied index still holds %d shapes, %d trigrams, %d annotated", shapes, trigrams, len(s.index.annotated))
	}
}

// TestTextIndexFollowsRandomHistory drives every path that touches the index
// — Put, PutBatch, Delete, ReplaceText, Annotate, replayed mutations and a
// wholesale restore — and rebuilds the expected index from the records
// after each step.
func TestTextIndexFollowsRandomHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	admin := Principal{Admin: true}
	s := NewStore()
	replica := NewStore() // advances only through Apply, like recovery and a follower
	s.SetMutationHook(func(m *Mutation) error {
		payload, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := DecodeMutation(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.Apply(replayed); err != nil {
			t.Fatalf("replaying %s: %v", m.Op, err)
		}
		return nil
	})
	newRecord := func() *QueryRecord {
		n := rng.Intn(12)
		rec := textRecord(fmt.Sprintf("SELECT c%d FROM T%d", n, n%3), fmt.Sprintf("select c%d from t%d", n, n%3))
		rec.Tables = []string{fmt.Sprintf("T%d", n%3)}
		return rec
	}
	var ids []QueryID
	pick := func() QueryID { return ids[rng.Intn(len(ids))] }
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 3 || len(ids) == 0:
			ids = append(ids, mustPut(t, s, newRecord()))
		case op < 5:
			ids = append(ids, mustPutBatch(t, s, []*QueryRecord{newRecord(), newRecord(), newRecord()})...)
		case op < 7:
			i := rng.Intn(len(ids))
			if err := s.Delete(ids[i], admin); err != nil {
				t.Fatal(err)
			}
			ids = append(ids[:i], ids[i+1:]...)
		case op < 8:
			if err := s.ReplaceText(pick(), newRecord()); err != nil {
				t.Fatal(err)
			}
		case op < 9:
			if err := s.Annotate(pick(), admin, Annotation{Text: "n"}); err != nil {
				t.Fatal(err)
			}
		default:
			// A numbered state keeps s's shape numbers, so the
			// replica's later frames still resolve.
			st, err := snapshotPayloads(s.CaptureState(nil), 4<<10)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RestoreState(st); err != nil {
				t.Fatal(err)
			}
		}
		checkTextIndex(t, s)
		checkTextIndex(t, replica)
		if t.Failed() {
			t.Fatalf("index diverged at step %d", step)
		}
	}
}

// TestTextSelectionUnderConcurrentWrites reads the index from several
// goroutines while writers insert, delete, re-text and annotate: every record
// a scan visits must still hold the text its shape was selected for, in
// ascending ID order, whatever the writers did since the selection.
func TestTextSelectionUnderConcurrentWrites(t *testing.T) {
	s := NewStore()
	admin := Principal{Admin: true}
	texts := []string{"select alpha from t", "select beta from t", "select alphabet from u", "select gamma from u"}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []QueryID
			for i := 0; i < 500; i++ {
				text := texts[rng.Intn(len(texts))]
				switch op := rng.Intn(6); {
				case op < 3 || len(mine) == 0:
					mine = append(mine, mustPut(t, s, textRecord(text, text)))
				case op == 3:
					j := rng.Intn(len(mine))
					if err := s.Delete(mine[j], admin); err != nil {
						t.Error(err)
					}
					mine = append(mine[:j], mine[j+1:]...)
				case op == 4:
					if err := s.ReplaceText(mine[rng.Intn(len(mine))], textRecord(text, text)); err != nil {
						t.Error(err)
					}
				default:
					if err := s.Annotate(mine[rng.Intn(len(mine))], admin, Annotation{Text: "n"}); err != nil {
						t.Error(err)
					}
				}
			}
		}(int64(w))
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sel := s.SelectTexts([]string{"alpha"}, func(text, _ string) bool { return strings.Contains(text, "alpha") })
				var annotated []*QueryRecord
				sel.ScanAnnotated(s.HighWater(), admin, func(rec *QueryRecord) bool {
					if strings.Contains(rec.LowerText(), "alpha") {
						annotated = append(annotated, rec)
					}
					return true
				})
				var last QueryID
				sel.Scan(0, s.HighWater(), annotated, admin, func(rec *QueryRecord) bool {
					if !strings.Contains(rec.LowerText(), "alpha") {
						t.Errorf("scan visited q%d with text %q", rec.ID, rec.Text)
					}
					if rec.ID <= last {
						t.Errorf("scan visited q%d after q%d", rec.ID, last)
					}
					last = rec.ID
					return true
				})
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	checkTextIndex(t, s)
}
