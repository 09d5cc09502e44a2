package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// checkTextIndex compares the search index with one rebuilt from the stored
// records: the same dictionary keys with the same postings, trigram postings
// that hold exactly the live entries containing the trigram (in creation
// order), the same annotated bucket, and every record pointing at its entry;
// and the shape dictionary holds exactly the live records' shapes.
func checkTextIndex(t *testing.T, s *Store) {
	t.Helper()
	checkShapes(t, s)
	wantIDs := map[textKey][]QueryID{}
	var wantAnnotated []QueryID
	s.Snapshot().scanAll(func(rec *QueryRecord) bool {
		key := textKey{strings.ToLower(rec.Text), strings.ToLower(rec.Canonical)}
		wantIDs[key] = append(wantIDs[key], rec.ID)
		if len(rec.Annotations) > 0 {
			wantAnnotated = append(wantAnnotated, rec.ID)
		}
		if rec.entry == nil || rec.entry.textKey != key {
			t.Errorf("record %d does not point at the entry of its text", rec.ID)
		}
		return true
	})
	slices.Sort(wantAnnotated)

	idx := &s.text
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	if len(idx.entries) != len(wantIDs) {
		t.Errorf("dictionary holds %d entries, the log %d distinct texts", len(idx.entries), len(wantIDs))
	}
	wantTrigrams := map[trigram][]*textEntry{}
	for key, e := range idx.entries {
		ids := wantIDs[key]
		slices.Sort(ids)
		if e.textKey != key || !slices.Equal(e.ids, ids) {
			t.Errorf("entry %q: postings %v, want %v", key.text, e.ids, ids)
		}
		for _, tg := range distinctTrigrams(key.text, key.canonical) {
			wantTrigrams[tg] = append(wantTrigrams[tg], e)
		}
	}
	if len(idx.trigrams) != len(wantTrigrams) {
		t.Errorf("trigram map holds %d keys, want %d", len(idx.trigrams), len(wantTrigrams))
	}
	for tg, want := range wantTrigrams {
		slices.SortFunc(want, func(a, b *textEntry) int { return int(a.seq) - int(b.seq) })
		if !slices.Equal(idx.trigrams[tg], want) {
			t.Errorf("trigram %06x: %d entries, want %d", tg, len(idx.trigrams[tg]), len(want))
		}
	}
	if !slices.Equal(idx.annotated, wantAnnotated) {
		t.Errorf("annotated bucket %v, want %v", idx.annotated, wantAnnotated)
	}
}

func textRecord(text, canonical string) *QueryRecord {
	return &QueryRecord{QueryShape: &QueryShape{Text: text, Canonical: canonical}, User: "alice", Visibility: VisibilityPublic}
}

// TestTextIndexDropsEmptiedEntries is the white-box leak check: once the last
// record of a text is deleted or re-texted, neither the dictionary nor any
// trigram bucket still refers to the entry, and an emptied index holds no key
// at all.
func TestTextIndexDropsEmptiedEntries(t *testing.T) {
	s := NewStore()
	admin := Principal{Admin: true}
	a1 := mustPut(t, s, textRecord("SELECT a FROM T", "select a from t"))
	a2 := mustPut(t, s, textRecord("select A from t", "select a from t")) // same pair once lower-cased
	b := mustPut(t, s, textRecord("SELECT b FROM Zürich", "select b from zürich"))
	if err := s.Annotate(b, admin, Annotation{Text: "note"}); err != nil {
		t.Fatal(err)
	}
	checkTextIndex(t, s)
	if texts, trigrams := s.SearchIndexSize(); texts != 2 || trigrams == 0 {
		t.Fatalf("SearchIndexSize = %d texts, %d trigrams; want 2 texts", texts, trigrams)
	}

	if err := s.Delete(a1, admin); err != nil {
		t.Fatal(err)
	}
	checkTextIndex(t, s)
	if texts, _ := s.SearchIndexSize(); texts != 2 {
		t.Fatalf("entry dropped while a record still holds its text: %d texts", texts)
	}
	if err := s.Delete(a2, admin); err != nil {
		t.Fatal(err)
	}
	checkTextIndex(t, s)
	onlyB := len(distinctTrigrams("select b from zürich"))
	if texts, trigrams := s.SearchIndexSize(); texts != 1 || trigrams != onlyB {
		t.Fatalf("after deleting the last record of a text: %d texts, %d trigrams; want 1, %d", texts, trigrams, onlyB)
	}

	if err := s.ReplaceText(b, textRecord("SELECT c FROM T", "select c from t")); err != nil {
		t.Fatal(err)
	}
	checkTextIndex(t, s)
	onlyC := len(distinctTrigrams("select c from t"))
	if texts, trigrams := s.SearchIndexSize(); texts != 1 || trigrams != onlyC {
		t.Fatalf("after re-texting the last record of a text: %d texts, %d trigrams; want 1, %d", texts, trigrams, onlyC)
	}

	if err := s.Delete(b, admin); err != nil {
		t.Fatal(err)
	}
	if texts, trigrams := s.SearchIndexSize(); texts != 0 || trigrams != 0 || len(s.text.annotated) != 0 {
		t.Fatalf("emptied index still holds %d texts, %d trigrams, %d annotated", texts, trigrams, len(s.text.annotated))
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
		return textRecord(fmt.Sprintf("SELECT c%d FROM T%d", n, n%3), fmt.Sprintf("select c%d from t%d", n, n%3))
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
			s.RestoreState(s.State())
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
// a scan visits must still hold the text its entry was selected for, in
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
