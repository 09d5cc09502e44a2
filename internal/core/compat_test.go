package core_test

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/profiler"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestParentDataDirOpens holds this build to the data directories of the
// build before it, whose mining pass copied the session detector's windows
// into the log. testdata/parent_datadir was written by commit 8ff5dba: a
// snapshot of 40 records carrying session IDs, with the session edges in an
// edge chunk, then a WAL tail of puts, a late put, a deletion and a mining
// pass's assign-session and add-edge records. This build must open it,
// recover every record, and serve the bodies that commit served from the same
// directory — its session listing for three principals, every session graph
// and every query by ID — which testdata/parent_datadir.golden holds; the
// golden is not regenerated. No maintenance pass ever ran on the directory, so
// the golden has no quality: this build's computed one is checked on its own
// and stripped before the comparison. The snapshot's stats, sessions and
// miner-feed sections are read and skipped: this build rebuilds all three from
// the records, so its session IDs are the lowest query ID each session holds
// (see matchGolden). Opening it upgrades it (assertUpgraded).
func TestParentDataDirOpens(t *testing.T) {
	c := openParentDataDir(t, "testdata/parent_datadir")
	defer func() { c.Close() }()
	rec := c.Recovery()
	if rec.Queries != 57 || rec.SnapshotRecords != 40 || rec.SnapshotFrames != 6 || rec.Replayed != 46 {
		t.Fatalf("recovery %+v, want 57 queries from a 40-record snapshot with an edge chunk and three sections, and 46 replayed records", *rec)
	}
	assertRebuiltFromTheRecords(t, c)
	got := parentBodies(t, c)
	if strings.Count(got, `"sessionId":`) != 57 || !strings.Contains(got, "GET /v1/sessions?limit=4&cursor=") {
		t.Fatalf("the bodies no longer cover every query and a paged listing:\n%.2000s", got)
	}
	matchGolden(t, got, "testdata/parent_datadir.golden")
	c = assertUpgraded(t, c)
	matchGolden(t, parentBodies(t, c), "testdata/parent_datadir.golden")
}

// TestParentQualityDataDirOpens holds this build to the data directories of
// the build before it, whose maintenance passes stored a quality score in
// every record. testdata/parent_quality_datadir was written by commit 1798723:
// a snapshot of 24 records, most with a non-zero quality slot, then a WAL tail
// of puts, annotations, a visibility flip, a deletion, a column drop and a
// rename, and two maintenance passes' mark-invalid, replace-text, mark-valid,
// mark-stale, update-stats and set-quality records. Its snapshot's stats,
// sessions and miner-feed sections are skipped. This build must open it and
// serve the bodies that commit served from it (testdata/parent_quality_datadir.golden,
// not regenerated) with two intended differences: every query's quality is
// the one computed from the record, not the score the last pass stored, and
// sessions are named by their lowest query ID. Opening it upgrades it
// (assertUpgraded).
func TestParentQualityDataDirOpens(t *testing.T) {
	c := openParentDataDir(t, "testdata/parent_quality_datadir")
	defer func() { c.Close() }()
	rec := c.Recovery()
	if rec.Queries != 35 || rec.SnapshotRecords != 24 || rec.SnapshotFrames != 5 || rec.Replayed != 90 {
		t.Fatalf("recovery %+v, want 35 queries from a 24-record snapshot with three sections, and 90 replayed records", *rec)
	}
	assertRebuiltFromTheRecords(t, c)
	got := parentBodies(t, c)
	if strings.Count(got, `"quality":`) != 35 {
		t.Fatalf("the bodies no longer cover every query:\n%.2000s", got)
	}
	matchGolden(t, got, "testdata/parent_quality_datadir.golden")
	c = assertUpgraded(t, c)
	matchGolden(t, parentBodies(t, c), "testdata/parent_quality_datadir.golden")
}

// TestParentShapeDataDirOpens holds this build to the data directories of the
// build before shape numbers, whose every put and snapshot record carried its
// whole shape. testdata/parent_shape_datadir was written by commit 4a6a4b5: a
// snapshot of 18 records over five texts, then a WAL tail of repeats, a new
// text, the last record of a text deleted and the text put again, deletes,
// a text repaired onto a new text and one onto a text the log holds, an
// annotation and a visibility flip. This build must open it — numbering the
// snapshot's shapes in ID order and each shape the tail enters in turn —
// and serve the bodies that commit served from it
// (testdata/parent_shape_datadir.golden, not regenerated). It then logs new
// frames that refer to those shapes by number, and must serve the same
// bodies after a restart, and again after a compaction. Opening it upgrades
// it (assertUpgraded).
func TestParentShapeDataDirOpens(t *testing.T) {
	c := openParentDataDir(t, "testdata/parent_shape_datadir")
	rec := c.Recovery()
	if rec.Queries != 33 || rec.SnapshotRecords != 18 || rec.SnapshotFrames != 2 || rec.Replayed != 25 {
		t.Fatalf("recovery %+v, want 33 queries from an 18-record snapshot and 25 replayed records", *rec)
	}
	assertRebuiltFromTheRecords(t, c)
	matchGolden(t, parentBodies(t, c), "testdata/parent_shape_datadir.golden")
	c = assertUpgraded(t, c)
	matchGolden(t, parentBodies(t, c), "testdata/parent_shape_datadir.golden")

	admin := storage.Principal{User: "root", Admin: true}
	var repeated []string
	c.Store().Snapshot().Scan(admin, func(rec *storage.QueryRecord) bool {
		repeated = append(repeated, rec.Text)
		return len(repeated) < 3
	})
	for i, text := range append(repeated, "SELECT Stars.name FROM Stars", repeated[0]) {
		if _, err := c.Submit(profiler.Submission{User: "dave", Group: "limnology", SQL: text, IssuedAt: time.Date(2009, 1, 6, 9, i, 0, 0, time.UTC)}); err != nil {
			t.Fatal(err)
		}
	}
	repaired, err := storage.NewRecordFromSQL(repeated[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store().ReplaceText(c.Store().HighWater(), repaired); err != nil {
		t.Fatal(err)
	}
	want := parentBodies(t, c)
	dir := c.Durability().Config().Dir
	for _, compact := range []bool{false, true} {
		if compact {
			if _, _, _, err := c.Durability().Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		c = openDataDir(t, dir)
		if got := parentBodies(t, c); got != want {
			t.Fatalf("after a restart (compacted: %v) the bodies differ %s", compact, firstDiff(want, got))
		}
	}
	if rec := c.Recovery(); rec.Replayed != 0 || rec.SnapshotRecords != 38 {
		t.Fatalf("recovery after the compaction %+v, want 38 records from the snapshot and no tail", *rec)
	}
	c.Close()
}

// TestParentSampleDataDirOpens holds this build to the data directories of
// the build before sample numbers, whose every put and snapshot record
// carried its whole output sample. testdata/parent_sample_datadir was written
// by commit 7b8d277 with a four-row sample policy: a snapshot of 15 records
// over five texts, each answer repeated, then a WAL tail of repeats and a new
// text, a deletion, an annotation, and three set-samples — one onto an answer
// the log holds, one onto a new answer, one clearing a sample. This build
// must open it — numbering the snapshot's samples in ID order and each
// sample the tail enters in turn — and serve byte for byte the bodies that
// commit served from it, by-data searches included
// (testdata/parent_sample_datadir.golden, not regenerated). It then logs new
// frames that refer to those samples by number, and must serve the same
// bodies after a restart, and again after a compaction. Opening it upgrades
// it (assertUpgraded).
func TestParentSampleDataDirOpens(t *testing.T) {
	c := openParentDataDir(t, "testdata/parent_sample_datadir")
	rec := c.Recovery()
	if rec.Queries != 28 || rec.SnapshotRecords != 15 || rec.SnapshotFrames != 3 || rec.Replayed != 19 {
		t.Fatalf("recovery %+v, want 28 queries from a 15-record snapshot and 19 replayed records", *rec)
	}
	assertRebuiltFromTheRecords(t, c)
	golden, err := os.ReadFile("testdata/parent_sample_datadir.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := parentBodies(t, c) + sampleBodies(t, c); got != string(golden) {
		t.Fatalf("bodies differ from the older build's %s", firstDiff(string(golden), got))
	}
	c = assertUpgraded(t, c)
	if got := parentBodies(t, c) + sampleBodies(t, c); got != string(golden) {
		t.Fatalf("after the upgrade the bodies differ from the older build's %s", firstDiff(string(golden), got))
	}
	admin := storage.Principal{User: "root", Admin: true}
	sampled := 0
	c.Store().Snapshot().Scan(admin, func(rec *storage.QueryRecord) bool {
		if rec.Sample != nil {
			sampled++
		}
		return true
	})
	if n := c.Store().SampleCount(); n == 0 || n*3 > sampled {
		t.Fatalf("%d records with a sample share %d samples", sampled, n)
	}

	var repeated []string
	c.Store().Snapshot().Scan(admin, func(rec *storage.QueryRecord) bool {
		repeated = append(repeated, rec.Text)
		return len(repeated) < 3
	})
	for i, text := range append(repeated, "SELECT Stars.name FROM Stars", repeated[0]) {
		if _, err := c.Submit(profiler.Submission{User: "dave", Group: "limnology", SQL: text, IssuedAt: time.Date(2009, 1, 9, 9, i, 0, 0, time.UTC)}); err != nil {
			t.Fatal(err)
		}
	}
	want := parentBodies(t, c) + sampleBodies(t, c)
	dir := c.Durability().Config().Dir
	for _, compact := range []bool{false, true} {
		if compact {
			if _, _, _, err := c.Durability().Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		c = openDataDir(t, dir)
		if got := parentBodies(t, c) + sampleBodies(t, c); got != want {
			t.Fatalf("after a restart (compacted: %v) the bodies differ %s", compact, firstDiff(want, got))
		}
	}
	if rec := c.Recovery(); rec.Replayed != 0 || rec.SnapshotRecords != 33 {
		t.Fatalf("recovery after the compaction %+v, want 33 records from the snapshot and no tail", *rec)
	}
	c.Close()
}

// assertUpgraded checks what opening an older build's directory left on
// disk, closes the core and opens the directory again. Every file reads with
// this build's readers: each snapshot passes wal.VerifySnapshot, and each
// frame of each segment storage.DecodeMutation. The second open restores the
// upgrade's snapshot, covering every frame the first one replayed, and
// replays nothing: no older frame is left to replay.
func assertUpgraded(t *testing.T, c *core.CQMS) *core.CQMS {
	t.Helper()
	dir, first := c.Durability().Config().Dir, c.Recovery()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		switch {
		case strings.HasSuffix(e.Name(), ".snap"):
			_, err = wal.VerifySnapshot(path)
		case strings.HasSuffix(e.Name(), ".seg"):
			var f *os.File
			if f, err = os.Open(path); err == nil {
				err = wal.ReadFrames(f, func(_ uint64, p []byte) error {
					_, err := storage.DecodeMutation(p)
					return err
				})
				f.Close()
			}
		default:
			err = fmt.Errorf("not a file of the log")
		}
		if err != nil {
			t.Errorf("after the upgrade, %s: %v", e.Name(), err)
		}
	}
	seq := c.Durability().SnapshotSeq()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c = openDataDir(t, dir)
	if rec := c.Recovery(); rec.Replayed != 0 || rec.SnapshotSeq != seq || rec.SnapshotRecords != first.Queries || rec.Queries != first.Queries {
		t.Fatalf("the second open: recovery %+v, want the upgrade's snapshot at %d of %d queries and nothing replayed", *rec, seq, first.Queries)
	}
	return c
}

// sampleBodies renders what the queries' output samples answer: by-data
// searches, as an administrator and as alice, for values the samples hold
// and one they do not.
func sampleBodies(t *testing.T, c *core.CQMS) string {
	t.Helper()
	ts := httptest.NewServer(server.New(c).Handler())
	defer ts.Close()
	var doc strings.Builder
	for _, who := range [][]string{
		{"X-CQMS-User", "root", "X-CQMS-Admin", "true"},
		{"X-CQMS-User", "alice", "X-CQMS-Groups", "limnology"},
	} {
		for _, body := range []string{
			`{"include":["Lake Union"],"limit":50}`,
			`{"include":["Lake Washington"],"exclude":["Lake Union"],"limit":50}`,
			`{"include":["Detroit"],"limit":50}`,
			`{"include":["no such value"],"limit":50}`,
		} {
			req, err := http.NewRequest("POST", ts.URL+"/v1/search/bydata", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(who); i += 2 {
				req.Header.Set(who[i], who[i+1])
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&doc, "POST /v1/search/bydata %s %v -> %d\n%s\n", body, who, resp.StatusCode, b)
		}
	}
	return doc.String()
}

// firstDiff shows where two documents part.
func firstDiff(want, got string) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	return fmt.Sprintf("at byte %d\n   now: …%.300s\n  then: …%.300s", i, got[max(0, i-80):], want[max(0, i-80):])
}

// assertRebuiltFromTheRecords checks that every derived-state subscriber of a
// core opened over an older build's directory rebuilt from the snapshot's
// records, and that the stats counters equal a rebuild from the records the
// store ended with.
func assertRebuiltFromTheRecords(t *testing.T, c *core.CQMS) {
	t.Helper()
	vec := c.Metrics().HistogramVec("cqms_store_subscriber_rebuild_seconds", "", nil, "subscriber")
	for _, name := range []string{"stats", "miner-feed", "sessions"} {
		if n := vec.With(name).Count(); n != 2 {
			t.Errorf("%s rebuilt %d times, want on attach and from the snapshot", name, n)
		}
	}
	admin := storage.Principal{Admin: true}
	rebuilt := stats.New()
	rebuilt.Rebuild(c.Store())
	if got, want := c.StatsTracker().TableCounts(admin), rebuilt.TableCounts(admin); !reflect.DeepEqual(got, want) {
		t.Errorf("table counts %+v, a rebuild counts %+v", got, want)
	}
	if got, want := c.StatsTracker().TopPredicates(admin, 0), rebuilt.TopPredicates(admin, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("predicates %+v, a rebuild counts %+v", got, want)
	}
}

// openParentDataDir opens a copy of a committed data directory over the
// engine its writer ran against.
func openParentDataDir(t *testing.T, src string) *core.CQMS {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return openDataDir(t, dir)
}

// openDataDir opens a data directory over the engine the committed ones'
// writers ran against.
func openDataDir(t *testing.T, dir string) *core.CQMS {
	t.Helper()
	eng := engine.New()
	if err := workload.Populate(eng, 200, 1); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Durability = wal.DefaultConfig(dir)
	cfg.Durability.SyncPolicy = "off"
	cfg.Durability.SnapshotEvery = 0
	c, err := core.OpenWithEngine(eng, cfg)
	if err != nil {
		t.Fatalf("opening the older build's directory: %v", err)
	}
	return c
}

// qualityKey is a query body's quality, the last key of the object.
var qualityKey = regexp.MustCompile(`,"quality":[^,}]*`)

// matchGolden compares the bodies with a golden an older build served, with
// two intended differences. The quality of each query is left out: that build
// served the score its last maintenance pass stored, this one the score of
// the record as it is. And that build numbered sessions in order of creation,
// this one names each by its lowest query ID: the golden's IDs are mapped to
// the lowest query its graph shows, and both sides are compared in the form
// sessionsCanonical gives them, since the IDs order the listing and so move
// its page cuts and cursors.
func matchGolden(t *testing.T, got, golden string) {
	t.Helper()
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	parent := qualityKey.ReplaceAllString(string(b), "")
	got = sessionsCanonical(t, qualityKey.ReplaceAllString(got, ""), nil)
	want := sessionsCanonical(t, parent, lowestQueryOfSession(parent))
	if got != want {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("bodies differ from the older build's at byte %d\n   now: …%.300s\nparent: …%.300s", i, got[max(0, i-80):], want[max(0, i-80):])
	}
}

var (
	// goldenEntry is one request of a bodies document and what it answered.
	goldenEntry = regexp.MustCompile(`(?m)^GET (\S+) (\[[^\]]*\]) -> (\d+)\n(.*)$`)
	graphPath   = regexp.MustCompile(`^/v1/sessions/(\d+)/graph$`)
	graphNode   = regexp.MustCompile(`\(q(\d+)\)`)
)

// lowestQueryOfSession maps each session ID a document shows a graph of to the
// lowest query ID among the graph's nodes.
func lowestQueryOfSession(doc string) map[int64]int64 {
	lowest := map[int64]int64{}
	for _, m := range goldenEntry.FindAllStringSubmatch(doc, -1) {
		g := graphPath.FindStringSubmatch(m[1])
		if g == nil || m[3] != "200" {
			continue
		}
		id, _ := strconv.ParseInt(g[1], 10, 64)
		for _, n := range graphNode.FindAllStringSubmatch(m[4], -1) {
			q, _ := strconv.ParseInt(n[1], 10, 64)
			if cur, ok := lowest[id]; !ok || q < cur {
				lowest[id] = q
			}
		}
	}
	return lowest
}

// sessionsCanonical rewrites a bodies document into a form that does not
// depend on where listing pages are cut: every session ID renamed through
// rename (nil: kept), each principal's listing as the concatenation of its
// pages in ascending ID order, one session a line, then every graph that
// exists (not 404) in ascending ID order. Every other body is kept in place,
// its sessionId renamed.
func sessionsCanonical(t *testing.T, doc string, rename map[int64]int64) string {
	t.Helper()
	name := func(id int64) int64 {
		if rename == nil {
			return id
		}
		to, ok := rename[id]
		if !ok {
			t.Fatalf("the golden names session %d but shows no graph of it", id)
		}
		return to
	}
	renameAfter := func(prefix, body string) string {
		re := regexp.MustCompile(regexp.QuoteMeta(prefix) + `(\d+)`)
		return re.ReplaceAllStringFunc(body, func(s string) string {
			id, _ := strconv.ParseInt(s[len(prefix):], 10, 64)
			return prefix + strconv.FormatInt(name(id), 10)
		})
	}
	type item struct {
		id  int64
		raw string
	}
	var out strings.Builder
	var principals []string
	listings := map[string][]item{}
	var graphs []item
	for _, m := range goldenEntry.FindAllStringSubmatch(doc, -1) {
		path, who, status, body := m[1], m[2], m[3], m[4]
		switch g := graphPath.FindStringSubmatch(path); {
		case strings.HasPrefix(path, "/v1/sessions?"):
			var page struct{ Sessions []json.RawMessage }
			if err := json.Unmarshal([]byte(body), &page); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if _, ok := listings[who]; !ok {
				principals = append(principals, who)
				listings[who] = nil
			}
			for _, raw := range page.Sessions {
				var s struct{ ID int64 }
				if err := json.Unmarshal(raw, &s); err != nil {
					t.Fatal(err)
				}
				listings[who] = append(listings[who], item{name(s.ID), renameAfter(`{"id":`, string(raw))})
			}
		case g != nil:
			if status == "404" {
				continue
			}
			id, _ := strconv.ParseInt(g[1], 10, 64)
			graphs = append(graphs, item{name(id), fmt.Sprintf("graph %d %s -> %s\n%s\n", name(id), who, status, renameAfter("Session ", body))})
		default:
			fmt.Fprintf(&out, "GET %s %s -> %s\n%s\n", path, who, status, renameAfter(`"sessionId":`, body))
		}
	}
	byID := func(a, b item) int { return cmp.Compare(a.id, b.id) }
	for _, who := range principals {
		fmt.Fprintf(&out, "sessions %s\n", who)
		slices.SortStableFunc(listings[who], byID)
		for _, s := range listings[who] {
			fmt.Fprintf(&out, "%s\n", s.raw)
		}
	}
	slices.SortStableFunc(graphs, byID)
	for _, g := range graphs {
		out.WriteString(g.raw)
	}
	return out.String()
}

// parentBodies renders what the golden holds, in its order: the session
// listing page by page for three principals, the graph of every session ID
// up to one past the highest query ID, and every query ID up to two past the
// record count, as an administrator.
func parentBodies(t *testing.T, c *core.CQMS) string {
	t.Helper()
	ts := httptest.NewServer(server.New(c).Handler())
	defer ts.Close()
	var doc strings.Builder
	get := func(path string, headers ...string) string {
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(headers); i += 2 {
			req.Header.Set(headers[i], headers[i+1])
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&doc, "GET %s %v -> %d\n%s\n", path, headers, resp.StatusCode, body)
		return string(body)
	}
	for _, who := range [][]string{
		{"X-CQMS-User", "root", "X-CQMS-Admin", "true"},
		{"X-CQMS-User", "alice", "X-CQMS-Groups", "limnology"},
		{"X-CQMS-User", "eve", "X-CQMS-Groups", "hydrology"},
	} {
		for cursor := ""; ; {
			body := get("/v1/sessions?limit=4"+cursor, who...)
			_, next, ok := strings.Cut(body, `"nextCursor":"`)
			if !ok {
				break
			}
			cursor = "&cursor=" + next[:strings.IndexByte(next, '"')]
		}
	}
	for id := 1; id <= int(c.Store().HighWater())+1; id++ {
		get(fmt.Sprintf("/v1/sessions/%d/graph", id), "X-CQMS-User", "root", "X-CQMS-Admin", "true")
	}
	// Every query body carries the quality computed from the record.
	admin := storage.Principal{User: "root", Admin: true}
	for id := 1; id <= c.Store().Count()+2; id++ {
		body := get(fmt.Sprintf("/v1/queries/%d", id), "X-CQMS-User", "root", "X-CQMS-Admin", "true")
		rec, err := c.Store().Get(storage.QueryID(id), admin)
		if err != nil {
			continue
		}
		var served map[string]any
		if err := json.Unmarshal([]byte(body), &served); err != nil || served["quality"] != rec.Quality() {
			t.Errorf("q%d: served quality %v (%v), want the record's %v", id, served["quality"], err, rec.Quality())
		}
	}
	return doc.String()
}
