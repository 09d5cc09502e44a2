package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// storeTrace is everything a refused or no-op write could have touched.
type storeTrace struct {
	logged, seen int // WAL-slot and subscriber calls
	count        int
	high         QueryID
	recs         []*QueryRecord // a full admin scan: the very versions, by pointer
}

func (a storeTrace) equal(b storeTrace) bool {
	return a.logged == b.logged && a.seen == b.seen && a.count == b.count && a.high == b.high &&
		slices.Equal(a.recs, b.recs)
}

// TestCommitRefusalsLeaveNoTrace: every live mutating method, refused for
// every reason it can be refused, returns the documented error and leaves
// the store, the log and the bus exactly as they were. An older build's
// session and quality ops, which only ever arrive by the upgrade's replay
// (ApplyPayload), are no-op rows: applied in every one of those circumstances,
// they return nil and leave no trace. So is the repeat of an update the record already holds — the same
// invalid reason, validity, stale flag or visibility: it returns nil with no
// emit, no WAL sequence and no new record version.
func TestCommitRefusalsLeaveNoTrace(t *testing.T) {
	huge := strings.Repeat("x", MaxRecordBytes)
	mallory := Principal{User: "mallory"}
	rec := func(text string) *QueryRecord {
		return &QueryRecord{QueryShape: &QueryShape{Text: text, Canonical: "c"}, User: "alice"}
	}

	// One row per op (put twice: both entries). text is "note" or huge; sized
	// says it lands in the logged payload, owned that the op asks who calls,
	// idempotent that a second identical call changes nothing.
	ops := []struct {
		name                     string
		call                     func(s *Store, id QueryID, p Principal, text string) error
		sized, owned, idempotent bool
	}{
		{"put", func(s *Store, _ QueryID, _ Principal, text string) error {
			_, err := s.Put(rec(text))
			return err
		}, true, false, false},
		{"putbatch", func(s *Store, _ QueryID, _ Principal, text string) error {
			ids, errs := s.PutBatch([]*QueryRecord{rec(text)})
			if errs == nil || ids[0] != 0 {
				return fmt.Errorf("PutBatch = %v, %v", ids, errs)
			}
			return errs[0]
		}, true, false, false},
		{"annotate", func(s *Store, id QueryID, p Principal, text string) error {
			return s.Annotate(id, p, Annotation{Text: text})
		}, true, true, false},
		{"visibility", func(s *Store, id QueryID, p Principal, _ string) error {
			return s.SetVisibility(id, p, VisibilityPublic)
		}, false, true, true},
		{"delete", func(s *Store, id QueryID, p Principal, _ string) error { return s.Delete(id, p) }, false, true, false},
		{"assign-session", func(s *Store, id QueryID, _ Principal, _ string) error {
			return applyOlder(s, olderOp(codeAssignSession, id))
		}, false, false, true},
		{"add-edge", func(s *Store, id QueryID, _ Principal, text string) error {
			// From, to, type and whatever diff a decoded one carries.
			p := binary.AppendVarint([]byte{PayloadFormat, codeAddEdge, hasID | hasSessionEdge}, int64(id))
			p = append(p, 2, 4, 2)
			return applyOlder(s, append(binary.AppendUvarint(p, uint64(len(text))), text...))
		}, true, false, true},
		{"mark-invalid", func(s *Store, id QueryID, _ Principal, text string) error { return s.MarkInvalid(id, text) }, true, false, true},
		{"mark-valid", func(s *Store, id QueryID, _ Principal, _ string) error { return s.MarkValid(id) }, false, false, true},
		{"mark-stale", func(s *Store, id QueryID, _ Principal, _ string) error { return s.MarkStatsStale(id, true) }, false, false, true},
		{"update-stats", func(s *Store, id QueryID, _ Principal, text string) error {
			return s.UpdateStats(id, RuntimeStats{Error: text})
		}, true, false, false},
		{"set-quality", func(s *Store, id QueryID, _ Principal, _ string) error {
			return applyOlder(s, olderOp(codeSetQuality, id))
		}, false, false, true},
		{"replace-text", func(s *Store, id QueryID, _ Principal, text string) error { return s.ReplaceText(id, rec(text)) }, true, false, false},
	}

	for _, op := range ops {
		put := strings.HasPrefix(op.name, "put")
		ignored := op.name == "assign-session" || op.name == "add-edge" || op.name == "set-quality"
		cases := []struct {
			name     string
			applies  bool
			readOnly bool
			id       QueryID
			p        Principal
			text     string
			want     error
		}{
			{"read-only", true, true, 1, alice, huge, ErrReadOnly}, // the gate comes before admission
			{"too large", op.sized, false, 1, alice, huge, ErrTooLarge},
			{"unknown id", !put, false, 99, alice, "note", ErrNotFound},
			{"not entitled", op.owned, false, 1, mallory, "note", ErrAccessDenied},
			{"no-op repeat", op.idempotent, false, 1, alice, "note", nil},
		}
		for _, c := range cases {
			if !c.applies {
				continue
			}
			want := c.want
			if ignored {
				want = nil
			}
			t.Run(op.name+"/"+c.name, func(t *testing.T) {
				// Alice's two private queries.
				s := NewStore()
				mustPut(t, s, rec("SELECT 1"))
				mustPut(t, s, rec("SELECT 2"))
				logged, seen := 0, 0
				s.SetLog(&fakeLog{append: func(*Mutation) error { logged++; return nil }})
				s.Subscribe("count", func(*Mutation) { seen++ }, SubscribeOptions{})
				if c.name == "no-op repeat" {
					if err := op.call(s, c.id, c.p, c.text); err != nil {
						t.Fatalf("the first call: %v", err)
					}
				}
				s.SetReadOnly(c.readOnly)
				trace := func() storeTrace {
					return storeTrace{logged, seen, s.Count(), s.HighWater(), s.Snapshot().Records(admin)}
				}

				before := trace()
				err := op.call(s, c.id, c.p, c.text)
				if want == nil && err != nil || !errors.Is(err, want) {
					t.Errorf("err = %v, want %v", err, want)
				}
				if after := trace(); !before.equal(after) {
					t.Errorf("the call left a trace:\nbefore %+v\n after %+v", before, after)
				}
			})
		}
	}
}

// TestNoOpAnswersForTheLog: a repeat that changes nothing logs nothing, but
// it waits on the last logged mutation — the write whose effect it reports
// may still be in flight — and a failure the log reports comes back as
// ErrNotDurable, as it does for a write that changes something.
func TestNoOpAnswersForTheLog(t *testing.T) {
	s := NewStore()
	mustPut(t, s, &QueryRecord{QueryShape: &QueryShape{Text: "SELECT 1", Canonical: "c"}, User: "alice"})
	var waited []uint64
	var logErr error
	log := &fakeLog{wait: func(seq uint64) error { waited = append(waited, seq); return logErr }}
	s.SetLog(log)

	if err := s.SetVisibility(1, alice, VisibilityPublic); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkStatsStale(1, false); err != nil { // a no-op: the flag is already clear
		t.Fatal(err)
	}
	logErr = errors.New("disk gone")
	if err := s.SetVisibility(1, alice, VisibilityPublic); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("a no-op over a failed log: %v, want ErrNotDurable", err)
	}
	if log.seq != 1 || !slices.Equal(waited, []uint64{1, 1, 1}) {
		t.Fatalf("%d logged, waits on %v; want 1 logged and every call waiting on seq 1", log.seq, waited)
	}
}

// TestPutBatchEqualsPuts: a record costs and leaves the same whether it
// arrives alone or in a batch of any size — same IDs, same mutations on the
// bus in the same order, the same bytes in the log, the same store — and an
// oversized record in a batch is refused exactly as Put refuses it, without
// keeping its neighbours out.
func TestPutBatchEqualsPuts(t *testing.T) {
	const n, oversized = 300, 100 // record 100 sits inside a chunk at every size below
	huge := strings.Repeat("x", MaxRecordBytes)
	at := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	records := func() []*QueryRecord {
		rng := rand.New(rand.NewSource(22))
		recs := make([]*QueryRecord, n)
		for i := range recs {
			table := []string{"WaterTemp", "WaterSalinity", "CityLocations"}[rng.Intn(3)]
			rec, err := NewRecordFromSQL(fmt.Sprintf("SELECT c%d FROM %s WHERE c%d < %d", rng.Intn(4), table, rng.Intn(4), rng.Intn(50)))
			if err != nil {
				t.Fatal(err)
			}
			rec.User = fmt.Sprintf("user%d", rng.Intn(5))
			rec.IssuedAt = at
			if rng.Intn(3) == 0 {
				rec.IssuedAt = at.Add(time.Duration(i) * time.Second)
			}
			if i == oversized {
				rec.Text = huge
			}
			recs[i] = rec
		}
		return recs
	}

	type outcome struct {
		ids      []QueryID
		refused  []bool
		bus      []string
		payloads [][]byte
		state    *StoreState
	}
	run := func(chunk int) outcome {
		var out outcome
		s := NewStore()
		s.SetLog(&fakeLog{append: func(m *Mutation) error {
			payload, err := m.Encode()
			out.payloads = append(out.payloads, payload)
			return err
		}})
		s.Subscribe("order", func(m *Mutation) {
			out.bus = append(out.bus, fmt.Sprintf("%s %d prev=%v", m.Op, m.Next().ID, m.Prev() != nil))
		}, SubscribeOptions{})
		recs := records()
		for i := 0; i < n; i += max(chunk, 1) {
			if chunk == 0 {
				id, err := s.Put(recs[i])
				out.ids, out.refused = append(out.ids, id), append(out.refused, errors.Is(err, ErrTooLarge))
				if err != nil && !errors.Is(err, ErrTooLarge) {
					t.Fatalf("Put %d: %v", i, err)
				}
				continue
			}
			batch := recs[i:min(i+chunk, n)]
			ids, errs := s.PutBatch(batch)
			for j := range batch {
				out.refused = append(out.refused, errs != nil && errors.Is(errs[j], ErrTooLarge))
				if errs != nil && errs[j] != nil && !errors.Is(errs[j], ErrTooLarge) {
					t.Fatalf("PutBatch record %d: %v", i+j, errs[j])
				}
			}
			out.ids = append(out.ids, ids...)
		}
		out.state = s.State()
		return out
	}

	want := run(0) // single Puts
	for i, refused := range want.refused {
		if refused != (i == oversized) || (want.ids[i] == 0) != refused {
			t.Fatalf("Put %d: id %d, refused %v", i, want.ids[i], refused)
		}
	}
	if len(want.payloads) != n-1 || len(want.bus) != n-1 || len(want.state.Records) != n-1 {
		t.Fatalf("%d payloads, %d bus mutations, %d records; want %d of each", len(want.payloads), len(want.bus), len(want.state.Records), n-1)
	}
	for _, chunk := range []int{1, 7, 32, 256} {
		got := run(chunk)
		if !slices.Equal(got.ids, want.ids) {
			t.Errorf("chunks of %d: IDs differ from single Puts", chunk)
		}
		if !slices.Equal(got.refused, want.refused) {
			t.Errorf("chunks of %d: ErrTooLarge reported for other records than Put refuses", chunk)
		}
		if !slices.Equal(got.bus, want.bus) {
			t.Errorf("chunks of %d: the bus saw a different mutation sequence", chunk)
		}
		if !slices.EqualFunc(got.payloads, want.payloads, bytes.Equal) {
			t.Errorf("chunks of %d: WAL payloads differ", chunk)
		}
		if !reflect.DeepEqual(got.state, want.state) {
			t.Errorf("chunks of %d: State() differs", chunk)
		}
	}
}
