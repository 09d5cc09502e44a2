package client

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
)

// The binary codec's equivalence test. One seeded random history of every
// mutation class the store has — Put, PutBatch, Annotate, SetVisibility,
// Delete, MarkInvalid/Valid/StatsStale, UpdateStats, ReplaceText, repeats of
// updates a record already holds and an older build's set-quality, replayed
// as the upgrade does, both of which change nothing and are not logged —
// full of values a codec
// gets wrong (nil against empty slices, omitted fields, non-UTC offsets, zero
// times, multi-byte and 1 MiB texts, nil samples) is applied to a durable
// primary, over a log an older build started: puts whose samples carry no
// number and set-samples (olderFrames), which opening it upgrades. The history also moves shapes and
// samples in and out of the store's dictionaries: a batch that enters a
// shape and refers to it, texts repaired onto shapes the store holds and onto
// new ones, a text whose last record goes and which is put again (under a new
// shape number), answers repeated across puts and answers whose last record
// a delete takes. More
// stores are then derived from it, one per path bytes take: a replay of the
// whole WAL after the upgrade's snapshot, a recovery from snapshot plus tail after Compact (every
// subscriber rebuilt from the snapshot's records), a follower bootstrapped
// over HTTP, and a replay that starts before the snapshot it is applied to.
// All must hold the live primary's state with its shape numbers, and the
// first three answer the /v1 API byte for byte like it. Along the way every
// mutation the primary emits goes through both codecs: the binary round trip
// must equal the round trip through the JSON codec it replaced, kept here as
// the oracle, once a shape reference is resolved against the store.

var equivSQL = []string{
	"SELECT WaterTemp.lake, WaterTemp.temp FROM WaterTemp WHERE WaterTemp.temp < 15",
	"SELECT WaterSalinity.salinity, WaterTemp.temp FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x",
	"SELECT WaterSalinity.lake, AVG(WaterSalinity.salinity) AS avg_sal FROM WaterSalinity GROUP BY WaterSalinity.lake",
	"SELECT CityLocations.city FROM CityLocations WHERE CityLocations.state = 'naïve — 日本語'",
	"SELECT WaterTemp.temp FROM WaterTemp WHERE WaterTemp.lake = 'Lake Union'",
	"select watertemp.temp from watertemp where watertemp.temp > 20",
}

// equivRecord builds the step's record. Every fourth record or so carries
// one of the awkward shapes.
func equivRecord(t *testing.T, rng *rand.Rand, step int) *storage.QueryRecord {
	t.Helper()
	text := equivSQL[rng.Intn(len(equivSQL))]
	if step == 0 {
		text = "SELECT WaterTemp.temp FROM WaterTemp WHERE WaterTemp.lake = '" + strings.Repeat("é", 1<<19) + "'" // 1 MiB of two-byte runes
	}
	rec, err := storage.NewRecordFromSQL(text)
	if err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	rec.User = fmt.Sprintf("user%d", rng.Intn(4))
	rec.Group = []string{"limnology", "", "hydrology"}[rng.Intn(3)]
	rec.Visibility = storage.Visibility(rng.Intn(3))
	switch rng.Intn(4) {
	case 0:
		rec.IssuedAt = equivClock(step)
	case 1:
		rec.IssuedAt = time.Unix(1700000000+int64(step)*90, int64(rng.Intn(1e9))).In(time.FixedZone("", 5*3600+1800))
	case 2:
		rec.IssuedAt = time.Unix(1700000000+int64(step)*90, 0).In(time.FixedZone("", -8*3600))
	default:
		rec.IssuedAt = time.Unix(1700000000+int64(step)*90, 0).UTC()
	}
	switch rng.Intn(6) {
	case 0: // nil sample, zero stats, zero ExecutedAt
	case 1:
		rec.Sample = &storage.OutputSample{Columns: []string{}, Rows: [][]string{}}
	case 2:
		rec.Sample = &storage.OutputSample{Columns: []string{"lake", "temp"}, Rows: [][]string{{"Lake Union", "11.5"}, nil, {}}, TotalRows: 3, Truncated: true}
		rec.Stats = storage.RuntimeStats{ExecTime: time.Duration(rng.Intn(1e6)), ResultRows: 3, ResultColumns: 2, SchemaVersion: 6, ExecutedAt: rec.IssuedAt}
	case 3: // one of a few answers, repeated
		rec.Sample = &storage.OutputSample{Columns: []string{"n"}, Rows: [][]string{{fmt.Sprint(rng.Intn(3))}}, TotalRows: 1}
	case 4: // an answer of its own, which a delete frees
		rec.Sample = &storage.OutputSample{Columns: []string{"n"}, Rows: [][]string{{fmt.Sprint("only ", step)}}, TotalRows: 1}
	default:
		rec.Stats = storage.RuntimeStats{Error: "relation \"ghost\" does not exist", ExecutedAt: time.Unix(int64(step), 0).UTC()}
	}
	if rng.Intn(5) == 0 {
		rec.Tables = []string{} // empty, where the parser leaves nil
		rec.GroupBy = []string{}
	}
	return rec
}

// mustPut stores rec and fails the test (without stopping it: writers run on
// other goroutines too) if the store refuses it.
func mustPut(t testing.TB, s *storage.Store, rec *storage.QueryRecord) storage.QueryID {
	t.Helper()
	id, err := s.Put(rec)
	if err != nil {
		t.Errorf("Put: %v", err)
	}
	return id
}

// mustPutBatch is mustPut for PutBatch.
func mustPutBatch(t testing.TB, s *storage.Store, recs []*storage.QueryRecord) []storage.QueryID {
	t.Helper()
	ids, errs := s.PutBatch(recs)
	if errs != nil {
		t.Errorf("PutBatch: %v", errs)
	}
	return ids
}

// equivClock is the time a history step stamps on what it writes when its
// draw picks no other.
func equivClock(step int) time.Time {
	return time.Unix(1700000000, 0).UTC().Add(time.Duration(step) * 61 * time.Second)
}

// runEquivHistory applies the seeded history to a store. midpoint runs once,
// halfway through.
func runEquivHistory(t *testing.T, store *storage.Store, seed int64, steps int, midpoint func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	admin := storage.Principal{Admin: true}
	var ids []storage.QueryID
	pick := func() storage.QueryID { return ids[rng.Intn(len(ids))] }
	must := func(step int, err error) {
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for step := 0; step < steps; step++ {
		if step == steps/2 && midpoint != nil {
			midpoint()
		}
		op := rng.Intn(17)
		if len(ids) < 3 {
			op = 0
		}
		switch op {
		case 0, 1, 2, 3:
			ids = append(ids, mustPut(t, store, equivRecord(t, rng, step)))
		case 4:
			batch := make([]*storage.QueryRecord, 2+rng.Intn(3))
			for i := range batch {
				batch[i] = equivRecord(t, rng, step*10+i)
			}
			ids = append(ids, mustPutBatch(t, store, batch)...)
		case 5:
			ann := storage.Annotation{Text: fmt.Sprintf("note %d — ünï", step), Fragment: []string{"", "temp"}[rng.Intn(2)], At: equivClock(step)}
			if rng.Intn(2) == 0 {
				ann.Author, ann.At = "carol", time.Unix(int64(step), 7).In(time.FixedZone("", 3600))
			}
			must(step, store.Annotate(pick(), admin, ann))
		case 6:
			must(step, store.SetVisibility(pick(), admin, storage.Visibility(rng.Intn(3))))
		case 7:
			i := rng.Intn(len(ids))
			must(step, store.Delete(ids[i], admin))
			ids = append(ids[:i], ids[i+1:]...)
		case 8:
			must(step, store.MarkInvalid(pick(), []string{"schema drift", ""}[rng.Intn(2)]))
		case 9:
			must(step, store.MarkValid(pick()))
		case 10:
			must(step, store.MarkStatsStale(pick(), rng.Intn(2) == 0))
		case 11:
			st := storage.RuntimeStats{ExecTime: time.Duration(rng.Intn(1e9)), ResultRows: rng.Intn(100)}
			if rng.Intn(2) == 0 {
				st.ExecutedAt = time.Unix(1700000000+int64(step), 0).In(time.FixedZone("", -3*3600))
			}
			must(step, store.UpdateStats(pick(), st))
		case 12: // what the upgrade replays of an older build's quality score
			must(step, applyOlder(store, parentSetQuality(pick(), rng.Float64())))
		case 13: // onto a shape the store holds, or one it does not yet
			text := equivSQL[rng.Intn(len(equivSQL))]
			if rng.Intn(2) == 0 {
				text = fmt.Sprintf("SELECT WaterTemp.lake FROM WaterTemp WHERE WaterTemp.temp > %d", step)
			}
			updated, err := storage.NewRecordFromSQL(text)
			must(step, err)
			must(step, store.ReplaceText(pick(), updated))
		case 14: // a batch that enters a shape and refers to it
			batch := []*storage.QueryRecord{equivRecord(t, rng, step), equivRecord(t, rng, step), equivRecord(t, rng, step)}
			fresh, err := storage.NewRecordFromSQL(fmt.Sprintf("SELECT WaterSalinity.lake FROM WaterSalinity WHERE WaterSalinity.salinity > %d", step))
			must(step, err)
			batch[0].QueryShape, batch[2].QueryShape = fresh.QueryShape, fresh.Clone().QueryShape
			ids = append(ids, mustPutBatch(t, store, batch)...)
		case 15, 16: // a shape's last record goes, and its text comes back
			victim, err := store.Get(pick(), admin)
			must(step, err)
			for i := 0; i < len(ids); i++ {
				if rec, err := store.Get(ids[i], admin); err == nil && rec.Text == victim.Text {
					must(step, store.Delete(ids[i], admin))
					ids = append(ids[:i], ids[i+1:]...)
					i--
				}
			}
			again := equivRecord(t, rng, step)
			again.QueryShape = victim.Clone().QueryShape
			ids = append(ids, mustPut(t, store, again))
		}
	}
}

// olderFrames is the start of a log an older build wrote: three puts whose
// samples carry no number — one answer twice and one once — then set-samples
// that move the second record to the third's answer and the first to a new
// one, which frees the first answer. Opening it upgrades it: the replay
// numbers the samples as it enters them, and a snapshot of the last of these
// frames replaces them.
func olderFrames(t *testing.T) [][]byte {
	t.Helper()
	answer := func(v string) *storage.OutputSample {
		return &storage.OutputSample{Columns: []string{"v"}, Rows: [][]string{{v}}, TotalRows: 1}
	}
	var out [][]byte
	add := func(m *storage.Mutation) {
		p, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	for i, v := range []string{"a", "a", "b"} {
		rec, err := storage.NewRecordFromSQL(equivSQL[i])
		if err != nil {
			t.Fatal(err)
		}
		rec.ID, rec.User, rec.Valid, rec.Sample = storage.QueryID(i+1), "older", true, answer(v)
		rec.IssuedAt = time.Unix(1690000000+int64(i), 0).UTC()
		add(&storage.Mutation{Op: storage.OpPut, Record: rec})
	}
	return append(out, olderSetSample(2, answer("b")), olderSetSample(1, answer("c")))
}

// olderSetSample is the set-sample payload an older build logged to move a
// record to another output sample: format 1, op code 11, a presence mask of
// the ID and sample bits (0 and 9), the zigzag ID, then the sample's columns,
// rows, total and truncation flag, every string a literal.
func olderSetSample(id storage.QueryID, sm *storage.OutputSample) []byte {
	p := binary.AppendUvarint([]byte{storage.PayloadFormat, 11}, 1|1<<9)
	p = binary.AppendVarint(p, int64(id))
	strs := func(ss []string) {
		p = binary.AppendUvarint(p, uint64(len(ss))+1)
		for _, s := range ss {
			p = append(binary.AppendUvarint(p, uint64(len(s))<<1), s...)
		}
	}
	strs(sm.Columns)
	p = binary.AppendUvarint(p, uint64(len(sm.Rows))+1)
	for _, row := range sm.Rows {
		strs(row)
	}
	return append(binary.AppendVarint(p, int64(sm.TotalRows)), 0)
}

// seedLog writes payloads into a new log in dir.
func seedLog(t *testing.T, dir string, payloads [][]byte) {
	t.Helper()
	log, err := wal.OpenLog(wal.Config{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		seq, err := log.AppendAsync(p)
		if err == nil {
			err = log.WaitDurable(seq)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// applyOlder replays a payload only an older build wrote, as recovery at
// open does, and checks that it is reported as one.
func applyOlder(s *storage.Store, p []byte) error {
	older, err := s.ApplyPayload(p)
	if err == nil && !older {
		return fmt.Errorf("a payload only an older build writes was not reported as one")
	}
	return err
}

// parentSetQuality is the set-quality payload an older build's maintenance
// pass logged for one record: format 1, op code 12, a presence mask of the ID
// and score bits (0 and 10), the zigzag ID and the score's float bits.
func parentSetQuality(id storage.QueryID, score float64) []byte {
	p := binary.AppendUvarint([]byte{storage.PayloadFormat, 12}, 1|1<<10)
	p = binary.AppendVarint(p, int64(id))
	return binary.LittleEndian.AppendUint64(p, math.Float64bits(score))
}

// checkMutationAgainstOracle sends one emitted mutation through both codecs.
func checkMutationAgainstOracle(t *testing.T, m *storage.Mutation) {
	payload, err := m.Encode()
	if err != nil {
		t.Errorf("%s: Encode: %v", m.Op, err)
		return
	}
	got, err := storage.DecodeMutation(payload)
	if err != nil {
		t.Errorf("%s: DecodeMutation: %v", m.Op, err)
		return
	}
	// A put or replace-text carries its shape inline under the number the
	// store gave it, or refers to it, and a put does the same with its
	// sample; a reference resolves against the store, which replay does and
	// the recovery paths below check.
	if got.Record != nil {
		live := m.Next().QueryShape
		if got.Record.QueryShape == nil {
			got.Record.QueryShape = live
		} else if got.Record.Number() != live.Number() {
			t.Errorf("%s: the frame defines shape %d, the store numbered it %d", m.Op, got.Record.Number(), live.Number())
		}
	}
	if rec, live := got.Record, m.Next(); m.Op == storage.OpPut && live.Sample != nil {
		if rec.Sample == nil {
			rec.Sample = live.Sample
		} else if rec.Sample.Number() != live.Sample.Number() {
			t.Errorf("%s: the frame defines sample %d, the store numbered it %d", m.Op, rec.Sample.Number(), live.Sample.Number())
		}
	}
	ref, err := json.Marshal(m)
	if err != nil {
		t.Errorf("%s: reference encode: %v", m.Op, err)
		return
	}
	var want storage.Mutation
	if err := json.Unmarshal(ref, &want); err != nil {
		t.Errorf("%s: reference decode: %v", m.Op, err)
		return
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(&want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("%s: binary round trip differs from the reference %s", m.Op, firstDifference(string(wantJSON), string(gotJSON)))
	}
}

func openEquivCore(t *testing.T, dir string) *core.CQMS {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Durability = wal.DefaultConfig(dir)
	cfg.Durability.SyncPolicy = "off"
	cfg.Durability.SegmentBytes = 64 << 10
	cfg.Durability.SnapshotEvery = 0
	c, err := core.OpenWithEngine(engine.New(), cfg)
	if err != nil {
		t.Fatalf("opening %s: %v", dir, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// apiDocument renders everything a server says about its store through the
// v1 API as an administrator: every record by ID (deleted ones answer with
// their error envelope), every user's history, a keyword search, the session
// listing and every session graph.
func apiDocument(t *testing.T, url string, maxID storage.QueryID) string {
	t.Helper()
	var doc strings.Builder
	fetch := func(method, path, body string) []byte {
		req, err := http.NewRequest(method, url+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-CQMS-User", "root")
		req.Header.Set("X-CQMS-Admin", "true")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return b
	}
	// pages follows nextCursor to the end of a listing: a GET takes the
	// cursor in its query string, a search in its JSON body.
	pages := func(method, path, body string, each func(page []byte)) {
		for cursor := ""; ; {
			p, q := path, body
			if cursor != "" && method == "GET" {
				p += "&cursor=" + cursor
			} else if cursor != "" {
				q = strings.TrimSuffix(body, "}") + `,"cursor":"` + cursor + `"}`
			}
			b := fetch(method, p, q)
			each(b)
			var page struct {
				NextCursor string `json:"nextCursor"`
			}
			if json.Unmarshal(b, &page) != nil || page.NextCursor == "" {
				return
			}
			cursor = page.NextCursor
		}
	}
	for id := storage.QueryID(1); id <= maxID; id++ {
		fmt.Fprintf(&doc, "query %d: %s\n", id, fetch("GET", fmt.Sprintf("/v1/queries/%d", id), ""))
	}
	for u := 0; u < 4; u++ {
		pages("GET", fmt.Sprintf("/v1/history?of=user%d&limit=50", u), "", func(b []byte) { fmt.Fprintf(&doc, "history user%d: %s\n", u, b) })
	}
	pages("POST", "/v1/search/keyword?limit=50", `{"keywords":["watertemp"],"limit":50}`, func(b []byte) { fmt.Fprintf(&doc, "search: %s\n", b) })
	var sessions []server.SessionDTO
	pages("GET", "/v1/sessions?limit=50", "", func(b []byte) {
		var page server.SessionsResponse
		if err := json.Unmarshal(b, &page); err != nil {
			t.Fatalf("sessions page: %v\n%s", err, b)
		}
		sessions = append(sessions, page.Sessions...)
		fmt.Fprintf(&doc, "sessions: %s\n", b)
	})
	if len(sessions) < 4 {
		t.Fatalf("only %d sessions listed at %s", len(sessions), url)
	}
	for _, s := range sessions {
		fmt.Fprintf(&doc, "graph %d: %s\n", s.ID, fetch("GET", fmt.Sprintf("/v1/sessions/%d/graph", s.ID), ""))
	}
	return doc.String()
}

// stateDocument renders the whole store state: every field of every record
// and the ID counter, then the shape and sample numbers: each live shape's
// number and text, both counters, and each record's shape and sample number.
func stateDocument(t *testing.T, store *storage.Store) string {
	t.Helper()
	st := store.CaptureState(nil)
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var doc strings.Builder
	doc.Write(b)
	fmt.Fprintf(&doc, "\nshape counter %d, sample counter %d, %d samples\n", st.NextShape, st.NextSample, store.SampleCount())
	for _, sh := range st.Shapes {
		fmt.Fprintf(&doc, "shape %d: %.80q\n", sh.Number(), sh.Text)
	}
	for _, rec := range st.Records {
		var sample uint64
		if rec.Sample != nil {
			sample = rec.Sample.Number()
		}
		fmt.Fprintf(&doc, "query %d: shape %d, sample %d\n", rec.ID, rec.Number(), sample)
	}
	return doc.String()
}

func firstDifference(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(0, i-120)
	return fmt.Sprintf("at byte %d of %d and %d\n  want: …%.240s\n   got: …%.240s", i, len(a), len(b), a[min(lo, len(a)):], b[min(lo, len(b)):])
}

func TestCodecEquivalenceAcrossRecoveryPaths(t *testing.T) {
	const seed, steps = 20260928, 260

	// The primary compacts halfway, so its directory ends as snapshot + tail.
	// Just before, both primary and twin put a few records — a shape entered
	// and referred to, one entered by its only record, and repeats of live
	// ones — which the overlapping replay below applies twice.
	beforeOverlap := func(store *storage.Store) {
		for i, text := range []string{"SELECT Stars.name FROM Stars WHERE Stars.mag < 4", equivSQL[0], "SELECT Stars.name FROM Stars WHERE Stars.mag < 4", equivSQL[1], "SELECT Stars.name FROM Stars WHERE Stars.mag < 2"} {
			rec, err := storage.NewRecordFromSQL(text)
			if err != nil {
				t.Fatal(err)
			}
			rec.User, rec.IssuedAt = "overlap", time.Unix(1800000000+int64(i), 0).UTC()
			mustPut(t, store, rec)
		}
	}
	older := olderFrames(t)
	primaryDir, twinDir := t.TempDir(), t.TempDir()
	seedLog(t, primaryDir, older)
	seedLog(t, twinDir, older)
	primary := openEquivCore(t, primaryDir)
	mutations := 0
	primary.Store().Subscribe("codec-oracle", func(m *storage.Mutation) {
		mutations++
		checkMutationAgainstOracle(t, m)
	}, storage.SubscribeOptions{})
	var overlapFrom uint64
	runEquivHistory(t, primary.Store(), seed, steps, func() {
		overlapFrom = primary.Durability().LastSeq()
		beforeOverlap(primary.Store())
		if _, _, _, err := primary.Durability().Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
	})
	if mutations < steps {
		t.Fatalf("the oracle saw %d mutations over %d steps", mutations, steps)
	}
	// Info waits until every appended record is written, so the copies of
	// the primary's directory below hold them all.
	if _, err := primary.Durability().Info(); err != nil {
		t.Fatal(err)
	}

	// Its twin never compacts: reopening its directory replays the whole log
	// after the snapshot its upgrade wrote.
	twin := openEquivCore(t, twinDir)
	runEquivHistory(t, twin.Store(), seed, steps, func() { beforeOverlap(twin.Store()) })
	if err := twin.Close(); err != nil {
		t.Fatal(err)
	}
	overlapped := overlappingReplay(t, copyDataDir(t, primaryDir), copyDataDir(t, twinDir), overlapFrom)

	replayed := openEquivCore(t, twinDir)
	if rec := replayed.Recovery(); rec.SnapshotSeq != uint64(len(older)) || rec.Replayed != mutations {
		t.Fatalf("WAL replay: recovery %+v, want %d records replayed after the upgrade's snapshot", rec, mutations)
	}
	recovered := openEquivCore(t, copyDataDir(t, primaryDir))
	if rec := recovered.Recovery(); rec.SnapshotSeq == 0 || rec.Replayed == 0 {
		t.Fatalf("snapshot + tail: recovery %+v, want a snapshot and a tail", rec)
	}

	tsPrimary := httptest.NewServer(server.New(primary).Handler())
	t.Cleanup(tsPrimary.Close) // after the follower's own cleanup has ended its long poll
	follower, tsFollower, _ := newFollower(t, tsPrimary.URL)
	waitCaughtUp(t, follower, primary)
	if st := follower.ReplicationStatus(); st.SnapshotSeq == 0 {
		t.Fatalf("the follower did not bootstrap from the snapshot: %+v", st)
	}

	maxID := primary.Store().CaptureState(nil).NextID
	wantState := stateDocument(t, primary.Store())
	if strings.Count(wantState, ": shape ") != primary.Store().Count() {
		t.Fatalf("the state document lists no shape numbers:\n%.2000s", wantState)
	}
	if n := primary.Store().SampleCount(); n < 8 {
		t.Fatalf("the history left %d samples; the seed no longer covers them", n)
	}
	if got := stateDocument(t, overlapped); got != wantState {
		t.Errorf("replay overlapping the snapshot: store state differs from the live primary's %s", firstDifference(wantState, got))
	}
	wantAPI := apiDocument(t, tsPrimary.URL, maxID)
	wantStats := statsForDiff(t, tsPrimary.URL)
	wantRules := primary.MinerFeed().Refresh().Rules
	if len(wantRules) == 0 {
		t.Fatal("the history left the primary's feed without rules; the seed no longer covers them")
	}
	for _, other := range []struct {
		name string
		c    *core.CQMS
		url  string
	}{
		{"WAL replay", replayed, ""},
		{"snapshot + tail recovery", recovered, ""},
		{"follower bootstrap", follower, tsFollower.URL},
	} {
		if other.url == "" {
			ts := httptest.NewServer(server.New(other.c).Handler())
			defer ts.Close()
			other.url = ts.URL
		}
		if got := stateDocument(t, other.c.Store()); got != wantState {
			t.Errorf("%s: store state differs from the live primary's %s", other.name, firstDifference(wantState, got))
		}
		if got := apiDocument(t, other.url, maxID); got != wantAPI {
			t.Errorf("%s: /v1 responses differ from the live primary's %s", other.name, firstDifference(wantAPI, got))
		}
		if got := statsForDiff(t, other.url); !bytes.Equal(got, wantStats) {
			t.Errorf("%s: /v1/stats differs\n live: %s\nother: %s", other.name, wantStats, got)
		}
		// The feed is exact on every path, a rebuilt one included: the same
		// transactions and the same rules as the live primary's.
		if got, want := other.c.MinerFeed().NumTransactions(), primary.MinerFeed().NumTransactions(); got != want {
			t.Errorf("%s: the miner feed counted %d transactions, the primary's %d", other.name, got, want)
		}
		if got := other.c.MinerFeed().Refresh().Rules; !reflect.DeepEqual(got, wantRules) {
			t.Errorf("%s: the miner feed derived %d rules that differ from the primary's %d", other.name, len(got), len(wantRules))
		}
	}
}

// readLatestSnapshot reads the newest snapshot in dir the way a follower
// bootstraps from one.
func readLatestSnapshot(t *testing.T, dir string) *wal.Snapshot {
	t.Helper()
	f, _, ok, err := wal.OpenLatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("OpenLatestSnapshot: ok %v, %v", ok, err)
	}
	defer f.Close()
	snap, err := wal.ReadSnapshot(f)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	return snap
}

// overlappingReplay restores the snapshot in snapDir and replays on top of it
// the whole log of logDir from sequence from+1 on, including the frames the
// snapshot already covers: puts of records it holds, defining shapes it
// holds under the same numbers. They must apply as the same changes again.
func overlappingReplay(t *testing.T, snapDir, logDir string, from uint64) *storage.Store {
	t.Helper()
	snap := readLatestSnapshot(t, snapDir)
	if snap.Seq <= from {
		t.Fatalf("the snapshot covers %d, no frame after %d", snap.Seq, from)
	}
	store := storage.NewStore()
	if err := store.RestoreState(snap.State); err != nil {
		t.Fatal(err)
	}
	log, err := wal.OpenLog(wal.Config{Dir: logDir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	overlap := 0
	if err := log.Replay(from, func(seq uint64, payload []byte) error {
		if seq <= snap.Seq {
			overlap++
		}
		m, err := storage.DecodeMutation(payload)
		if err != nil {
			return err
		}
		if err := store.Apply(m); err != nil {
			return fmt.Errorf("frame %d (%s, the snapshot covers %d): %w", seq, m.Op, snap.Seq, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if overlap == 0 {
		t.Fatal("no frame the snapshot covers was replayed")
	}
	return store
}
