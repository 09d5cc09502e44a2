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
// Delete, MarkInvalid/Valid/StatsStale, UpdateStats, SetSample, ReplaceText,
// repeats of updates a record already holds and an older build's decoded
// set-quality, both of which change nothing and are not logged — full of
// values a codec gets wrong (nil against empty slices, omitted fields,
// non-UTC offsets, zero times, multi-byte and 1 MiB texts, nil samples) is
// applied to a durable primary. Four more stores are then derived from it, one per path bytes
// take: a replay of the whole WAL, a recovery from snapshot plus tail, the
// same recovery with the checkpoint sections cut off (every subscriber
// rebuilt), and a follower bootstrapped over HTTP. All must answer the /v1
// API byte for byte like the live primary. Along the way every mutation the
// primary emits goes through both codecs: the binary round trip must equal
// the round trip through the JSON codec it replaced, kept here as the oracle.

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
	case 0: // zero: the store stamps its clock
	case 1:
		rec.IssuedAt = time.Unix(1700000000+int64(step)*90, int64(rng.Intn(1e9))).In(time.FixedZone("", 5*3600+1800))
	case 2:
		rec.IssuedAt = time.Unix(1700000000+int64(step)*90, 0).In(time.FixedZone("", -8*3600))
	default:
		rec.IssuedAt = time.Unix(1700000000+int64(step)*90, 0).UTC()
	}
	switch rng.Intn(4) {
	case 0: // nil sample, zero stats, zero ExecutedAt
	case 1:
		rec.Sample = &storage.OutputSample{Columns: []string{}, Rows: [][]string{}}
	case 2:
		rec.Sample = &storage.OutputSample{Columns: []string{"lake", "temp"}, Rows: [][]string{{"Lake Union", "11.5"}, nil, {}}, TotalRows: 3, Truncated: true}
		rec.Stats = storage.RuntimeStats{ExecTime: time.Duration(rng.Intn(1e6)), ResultRows: 3, ResultColumns: 2, SchemaVersion: 6, ExecutedAt: rec.IssuedAt}
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

// runEquivHistory applies the seeded history to a store. midpoint runs once,
// halfway through.
func runEquivHistory(t *testing.T, store *storage.Store, seed int64, steps int, midpoint func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tick := 0
	store.SetClock(func() time.Time {
		tick++
		return time.Unix(1700000000, 0).UTC().Add(time.Duration(tick) * 61 * time.Second)
	})
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
		op := rng.Intn(14)
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
			ann := storage.Annotation{Text: fmt.Sprintf("note %d — ünï", step), Fragment: []string{"", "temp"}[rng.Intn(2)]}
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
			if rng.Intn(2) == 0 {
				must(step, store.SetSample(pick(), nil))
			} else {
				must(step, store.SetSample(pick(), &storage.OutputSample{Columns: []string{"n"}, Rows: [][]string{{fmt.Sprint(step)}}, TotalRows: 1}))
			}
		case 12:
			m, err := storage.DecodeMutation(parentSetQuality(pick(), rng.Float64()))
			must(step, err)
			must(step, store.Apply(m))
		case 13:
			updated, err := storage.NewRecordFromSQL(equivSQL[rng.Intn(len(equivSQL))])
			must(step, err)
			must(step, store.ReplaceText(pick(), updated))
		}
	}
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

// cutCheckpointSections truncates the directory's snapshot after its last
// chunk frame, which the on-disk reader answers by rebuilding every
// subscriber, stats included.
func cutCheckpointSections(t *testing.T, dir string) {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots in %s: %v, %v", dir, snaps, err)
	}
	info, err := wal.VerifySnapshot(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i := 0; i < info.Frames-len(info.Sidecars); i++ {
		off += 16 + int(binary.LittleEndian.Uint32(raw[off:]))
	}
	if len(info.Sidecars) != 1 || off >= len(raw) {
		t.Fatalf("snapshot %+v: nothing to cut", info)
	}
	if err := os.WriteFile(snaps[0], raw[:off], 0o644); err != nil {
		t.Fatal(err)
	}
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
// and the ID counter.
func stateDocument(t *testing.T, store *storage.Store) string {
	t.Helper()
	b, err := json.Marshal(store.State())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
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
	primaryDir := t.TempDir()
	primary := openEquivCore(t, primaryDir)
	mutations := 0
	primary.Store().Subscribe("codec-oracle", func(m *storage.Mutation) {
		mutations++
		checkMutationAgainstOracle(t, m)
	}, storage.SubscribeOptions{})
	runEquivHistory(t, primary.Store(), seed, steps, func() {
		if _, _, _, err := primary.Durability().Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
	})
	if mutations < steps {
		t.Fatalf("the oracle saw %d mutations over %d steps", mutations, steps)
	}
	if err := primary.Durability().Sync(); err != nil {
		t.Fatal(err)
	}

	// Its twin never compacts: reopening its directory replays the whole log.
	twinDir := t.TempDir()
	twin := openEquivCore(t, twinDir)
	runEquivHistory(t, twin.Store(), seed, steps, nil)
	if err := twin.Close(); err != nil {
		t.Fatal(err)
	}

	replayed := openEquivCore(t, twinDir)
	if rec := replayed.Recovery(); rec.SnapshotSeq != 0 || rec.Replayed != mutations {
		t.Fatalf("WAL replay: recovery %+v, want %d records replayed and no snapshot", rec, mutations)
	}
	recovered := openEquivCore(t, copyDataDir(t, primaryDir))
	if rec := recovered.Recovery(); rec.SnapshotSeq == 0 || rec.Replayed == 0 || !reflect.DeepEqual(rec.CheckpointRestored, []string{"stats"}) {
		t.Fatalf("snapshot + tail: recovery %+v, want a snapshot, a tail and the stats checkpoint restored", rec)
	}
	rebuiltDir := copyDataDir(t, primaryDir)
	cutCheckpointSections(t, rebuiltDir)
	rebuilt := openEquivCore(t, rebuiltDir)
	if rec := rebuilt.Recovery(); rec.SnapshotSeq == 0 || len(rec.CheckpointRebuilt) != 3 {
		t.Fatalf("snapshot without sections: recovery %+v, want three rebuilt subscribers", rec)
	}

	tsPrimary := httptest.NewServer(server.New(primary).Handler())
	t.Cleanup(tsPrimary.Close) // after the follower's own cleanup has ended its long poll
	follower, tsFollower, _ := newFollower(t, tsPrimary.URL)
	waitCaughtUp(t, follower, primary)
	if st := follower.ReplicationStatus(); st.SnapshotSeq == 0 {
		t.Fatalf("the follower did not bootstrap from the snapshot: %+v", st)
	}

	maxID := primary.Store().State().NextID
	wantState := stateDocument(t, primary.Store())
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
		{"recovery with every subscriber rebuilt", rebuilt, ""},
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
