package metaquery_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metaquery"
	"repro/internal/miner"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/wal"
)

// ---------------------------------------------------------------------------
// The oracle: every search kind as a full-log scan or a whole meta-query, the
// way it was served before the search index and the Page bodies, and the page
// cut the v1 handler made out of the sorted result. Page must reproduce both
// exactly.
// ---------------------------------------------------------------------------

// sortListing puts matches in listing order: descending score, ties broken by
// ascending query ID.
func sortListing(matches []metaquery.Match) {
	sort.SliceStable(matches, func(i, j int) bool {
		if matches[i].Score != matches[j].Score {
			return matches[i].Score > matches[j].Score
		}
		return matches[i].Record.ID < matches[j].Record.ID
	})
}

func scanKeyword(store *storage.Store, p storage.Principal, keywords []string) []metaquery.Match {
	lowered := make([]string, len(keywords))
	for i, k := range keywords {
		lowered[i] = strings.ToLower(k)
	}
	var out []metaquery.Match
	store.Snapshot().Scan(p, func(rec *storage.QueryRecord) bool {
		text := strings.ToLower(rec.Text)
		var ann string
		if len(rec.Annotations) > 0 {
			var annText strings.Builder
			for _, a := range rec.Annotations {
				annText.WriteString(strings.ToLower(a.Text))
				annText.WriteString(" ")
			}
			ann = annText.String()
		}
		matched, annotationHits := 0, 0
		for _, k := range lowered {
			inText := strings.Contains(text, k)
			inAnn := strings.Contains(ann, k)
			if inText || inAnn {
				matched++
			}
			if inAnn {
				annotationHits++
			}
		}
		if matched == len(lowered) {
			score := 0.8 + 0.2*float64(annotationHits)/float64(len(lowered))
			out = append(out, metaquery.Match{Record: rec, Score: score, Why: "keywords: " + strings.Join(keywords, ", ")})
		}
		return true
	})
	sortListing(out)
	return out
}

func scanSubstring(store *storage.Store, p storage.Principal, substr string) []metaquery.Match {
	needle := strings.ToLower(substr)
	var out []metaquery.Match
	store.Snapshot().Scan(p, func(rec *storage.QueryRecord) bool {
		if strings.Contains(strings.ToLower(rec.Canonical), needle) || strings.Contains(strings.ToLower(rec.Text), needle) {
			out = append(out, metaquery.Match{Record: rec, Score: 1, Why: "substring: " + substr})
		}
		return true
	})
	sortListing(out)
	return out
}

func scanByData(store *storage.Store, p storage.Principal, include, exclude []string) []metaquery.Match {
	has := func(s *storage.OutputSample, value string) bool {
		for _, row := range s.Rows {
			for _, cell := range row {
				if strings.EqualFold(cell, value) {
					return true
				}
			}
		}
		return false
	}
	var out []metaquery.Match
	store.Snapshot().Scan(p, func(rec *storage.QueryRecord) bool {
		if rec.Sample == nil {
			return true
		}
		for _, v := range include {
			if !has(rec.Sample, v) {
				return true
			}
		}
		for _, v := range exclude {
			if has(rec.Sample, v) {
				return true
			}
		}
		out = append(out, metaquery.Match{Record: rec, Score: 1, Why: fmt.Sprintf("output includes %v, excludes %v", include, exclude)})
		return true
	})
	sortListing(out)
	return out
}

// scanMetaQuery runs a meta-query over the visible feature relations and
// resolves its qid column.
func scanMetaQuery(t *testing.T, store *storage.Store, sessionOf func(*storage.QueryRecord) int64, p storage.Principal, metaSQL, why string) []metaquery.Match {
	eng, err := metaquery.MaterializeFeatureRelations(context.Background(), store.Snapshot(), p, sessionOf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Execute(metaSQL)
	if err != nil {
		t.Fatalf("%s: %v", metaSQL, err)
	}
	seen := map[int64]bool{}
	var out []metaquery.Match
	for _, row := range res.Rows {
		id := row[0].Int
		if seen[id] {
			continue
		}
		seen[id] = true
		if rec, err := store.Snapshot().Get(storage.QueryID(id), p); err == nil {
			out = append(out, metaquery.Match{Record: rec, Score: 1, Why: why})
		}
	}
	sortListing(out)
	return out
}

func scanSimilar(t *testing.T, store *storage.Store, p storage.Principal, probeSQL string) []metaquery.Match {
	probe, err := storage.NewRecordFromSQL(probeSQL)
	if err != nil {
		t.Fatal(err)
	}
	var out []metaquery.Match
	store.Snapshot().Scan(p, func(rec *storage.QueryRecord) bool {
		if score := miner.CompositeSimilarity(miner.DefaultWeights(), probe, rec); score > 0 {
			out = append(out, metaquery.Match{Record: rec, Score: score, Why: "similar query"})
		}
		return true
	})
	sortListing(out)
	return out
}

// wireCursor is the decoded form of the opaque v1 cursor.
type wireCursor struct {
	Kind  string  `json:"k"`
	High  int64   `json:"h"`
	After int64   `json:"a"`
	Score float64 `json:"s"`
	Pos   bool    `json:"p"`
	Seen  int     `json:"n"`
}

func decodeCursor(t *testing.T, raw string) wireCursor {
	t.Helper()
	b, err := base64.RawURLEncoding.DecodeString(raw)
	if err != nil {
		t.Fatalf("cursor %q: %v", raw, err)
	}
	var c wireCursor
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatalf("cursor %q: %v", raw, err)
	}
	return c
}

// oraclePage cuts the page after cur out of the full sorted listing, of which
// at most left more matches may be returned (left < 0: no cap).
func oraclePage(all []metaquery.Match, cur wireCursor, limit, left int) (page []metaquery.Match, more bool) {
	var kept []metaquery.Match
	for _, m := range all {
		if int64(m.Record.ID) > cur.High {
			continue
		}
		if cur.Pos && (m.Score > cur.Score || (m.Score == cur.Score && int64(m.Record.ID) <= cur.After)) {
			continue
		}
		kept = append(kept, m)
	}
	if left >= 0 && len(kept) > left {
		kept = kept[:left]
	}
	if len(kept) > limit {
		return kept[:limit], true
	}
	return kept, false
}

// ---------------------------------------------------------------------------
// Random histories and random searches
// ---------------------------------------------------------------------------

// texts is the statement pool: ASCII and multi-byte, in mixed case, few enough
// that records share dictionary entries and deletions empty some of them.
var texts = []string{
	"SELECT lake, temp FROM WaterTemp WHERE temp < 18",
	"select LAKE, Temp from watertemp where TEMP < 18",
	"SELECT salinity FROM WaterSalinity WHERE depth > 5",
	"SELECT name FROM Städte WHERE name = 'Zürich' AND einwohner > 400000",
	"SELECT ΔT FROM Messung WHERE ort = 'Ångström' AND ΔT > 0.5",
	"SELECT город FROM Города WHERE страна = 'Россия'",
	"SELECT a FROM t",
	"SELECT ab FROM tt WHERE ab = 'İstanbul'",
	"SELECT name, magnitude FROM Stars WHERE magnitude < 4",
	"SELECT 湖, 温度 FROM 水温 WHERE 温度 < 18",
	`SELECT "it's" FROM t WHERE "it's" > 1`,
}

// samples are the output samples of the texts of the same index; nil: the
// query has none.
var samples = []*storage.OutputSample{
	{Columns: []string{"lake"}, Rows: [][]string{{"Lake Washington"}, {"Lake Union"}}},
	{Columns: []string{"lake"}, Rows: [][]string{{"lake washington"}}},
	nil,
	{Columns: []string{"name"}, Rows: [][]string{{"Zürich"}, {"Genf"}}},
	nil,
	{Columns: []string{"город"}, Rows: [][]string{{"Москва"}}},
	{Columns: []string{"a"}, Rows: [][]string{{"1"}, {"Lake Union"}}},
	nil,
	{Columns: []string{"name"}, Rows: [][]string{{"Sirius"}, {"Vega"}}},
	{Columns: []string{"湖"}, Rows: [][]string{{"琵琶湖"}}},
	nil,
}

// Search terms of the other kinds: sample values, partial queries,
// meta-queries (qid first) and similarity probes.
var (
	sampleValues = []string{"Lake Washington", "LAKE UNION", "zürich", "Sirius", "1", "no-such-value"}
	partials     = []string{
		"SELECT FROM WaterTemp", "SELECT temp FROM watertemp WHERE", "SELECT FROM WaterSalinity, WaterTemp",
		"SELECT magnitude FROM", "SELECT a FROM t", "SELECT name FROM Stars WHERE",
		"SELECT FROM watertemp",      // names compare byte for byte
		`SELECT "it's" FROM t WHERE`, // a quoted name holding a quote
		"SELECT FROM WaterTemp w JOIN tt ON w.lake = tt.ab GROUP BY temp", // names in ON and GROUP BY
		"SELECT t.* FROM t",               // a qualified star
		"lake SELECT temp FROM WaterTemp", // an identifier before SELECT names nothing
	}
	metaQueries = []string{
		"SELECT qid FROM Queries",
		"SELECT Q.qid FROM Queries Q, DataSources D WHERE Q.qid = D.qid AND D.relName = 'WaterTemp'",
		"SELECT qid, quser FROM Queries WHERE quser = 'alice'",
		"SELECT A.qid FROM Attributes A WHERE A.attrName = 'temp'",
		"SELECT Q.qid FROM Queries Q JOIN DataSources D ON Q.qid = D.qid JOIN Attributes A USING (relName)",
		"SELECT qid FROM QueryAnnotations WHERE note LIKE '%lakes%'",
	}
	probes = []string{
		"SELECT lake, temp FROM WaterTemp WHERE temp < 20",
		"SELECT name FROM Stars WHERE magnitude < 2",
		"SELECT a FROM t WHERE a = 1",
	}
)

var annotations = []string{
	"find temp and salinity of Seattle lakes",
	"Überblick über große Städte",
	"cold lakes only",
	"ΔT outliers",
	"TODO",
}

var users = []struct {
	name, group string
}{{"alice", "limnology"}, {"bob", "limnology"}, {"carol", "astro"}, {"dave", ""}}

var principals = []storage.Principal{
	{Admin: true},
	{User: "alice", Groups: []string{"limnology"}},
	{User: "bob", Groups: []string{"limnology", "astro"}},
	{User: "carol", Groups: []string{"astro"}},
	{User: "dave"},
	{User: "stranger"},
}

// history applies random mutations to a store and remembers the live IDs.
type history struct {
	rng   *rand.Rand
	store *storage.Store
	ids   []storage.QueryID
}

func (h *history) record() *storage.QueryRecord {
	i := h.rng.Intn(len(texts))
	u := users[h.rng.Intn(len(users))]
	// The feature relations come from the parse; a text the parser refuses
	// is logged without them, as a raw-captured failure is.
	rec, err := storage.NewRecordFromSQL(texts[i])
	if err != nil {
		rec = &storage.QueryRecord{QueryShape: &storage.QueryShape{}}
	}
	rec.Text = texts[i]
	// A canonical form that differs from the text, so some needles hit only
	// one of the two.
	rec.Canonical = strings.Join(strings.Fields(strings.ToUpper(texts[i])), " ") + fmt.Sprintf(" /*canon%d*/", h.rng.Intn(3))
	rec.User, rec.Group = u.name, u.group
	rec.Visibility = storage.Visibility(h.rng.Intn(3))
	rec.Sample = samples[i]
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

func (h *history) step(t *testing.T) {
	t.Helper()
	admin := storage.Principal{Admin: true}
	pick := func() storage.QueryID { return h.ids[h.rng.Intn(len(h.ids))] }
	var err error
	op := h.rng.Intn(12)
	if len(h.ids) > 400 {
		op = 5 // keep the log, and with it the number of pages per listing, bounded
	}
	switch {
	case op < 3 || len(h.ids) == 0:
		h.ids = append(h.ids, mustPut(t, h.store, h.record()))
	case op < 5:
		h.ids = append(h.ids, mustPutBatch(t, h.store, []*storage.QueryRecord{h.record(), h.record(), h.record()})...)
	case op < 7:
		i := h.rng.Intn(len(h.ids))
		err = h.store.Delete(h.ids[i], admin)
		h.ids = append(h.ids[:i], h.ids[i+1:]...)
	case op < 9:
		err = h.store.SetVisibility(pick(), admin, storage.Visibility(h.rng.Intn(3)))
	case op < 10:
		err = h.store.ReplaceText(pick(), h.record())
	default:
		err = h.store.Annotate(pick(), admin, storage.Annotation{Text: annotations[h.rng.Intn(len(annotations))]})
	}
	if err != nil {
		t.Fatalf("mutation: %v", err)
	}
}

// needle draws a search term: a fragment of a pooled text or annotation (one
// or two bytes long a third of the time, cut on rune boundaries), in random
// case, or a term nothing contains.
func needle(rng *rand.Rand) string {
	if rng.Intn(8) == 0 {
		return "no-such-term"
	}
	src := texts[rng.Intn(len(texts))]
	if rng.Intn(3) == 0 {
		src = annotations[rng.Intn(len(annotations))]
	}
	runes := []rune(src)
	n := 3 + rng.Intn(10)
	if rng.Intn(3) == 0 {
		n = 1 + rng.Intn(2)
	}
	n = min(n, len(runes))
	start := rng.Intn(len(runes) - n + 1)
	out := string(runes[start : start+n])
	if strings.TrimSpace(out) == "" {
		return "temp"
	}
	switch rng.Intn(3) {
	case 0:
		return strings.ToUpper(out)
	case 1:
		return strings.ToLower(out)
	}
	return out
}

// searcher pages one server's search API and compares every page with the
// oracle over that server's store.
type searcher struct {
	rng       *rand.Rand
	url       string
	store     *storage.Store
	sessionOf func(*storage.QueryRecord) int64 // the server's session detector
	// between runs between two pages of one listing (nil: nothing does).
	between func()
}

func (s *searcher) post(t *testing.T, p storage.Principal, kind string, params server.SearchParams) server.SearchResponse {
	t.Helper()
	body, _ := json.Marshal(params)
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/search/"+kind, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(server.HeaderUser, p.User)
	req.Header.Set(server.HeaderGroups, strings.Join(p.Groups, ","))
	if p.Admin {
		req.Header.Set(server.HeaderAdmin, "true")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/search/%s %+v: status %d", kind, params, resp.StatusCode)
	}
	var out server.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// listing draws a random search: its kind, its request, and the oracle that
// computes its whole sorted match set as of now.
func (s *searcher) listing(t *testing.T) (string, server.SearchParams, func(p storage.Principal) []metaquery.Match) {
	pick := func(pool []string) string { return pool[s.rng.Intn(len(pool))] }
	switch s.rng.Intn(6) {
	case 0:
		params := server.SearchParams{Keywords: []string{needle(s.rng)}}
		for s.rng.Intn(3) == 0 {
			params.Keywords = append(params.Keywords, needle(s.rng))
		}
		return "keyword", params, func(p storage.Principal) []metaquery.Match { return scanKeyword(s.store, p, params.Keywords) }
	case 1:
		params := server.SearchParams{Substring: needle(s.rng)}
		return "substring", params, func(p storage.Principal) []metaquery.Match { return scanSubstring(s.store, p, params.Substring) }
	case 2:
		var params server.SearchParams
		for len(params.Include)+len(params.Exclude) == 0 {
			for s.rng.Intn(2) == 0 {
				params.Include = append(params.Include, pick(sampleValues))
			}
			for s.rng.Intn(3) == 0 {
				params.Exclude = append(params.Exclude, pick(sampleValues))
			}
		}
		return "bydata", params, func(p storage.Principal) []metaquery.Match {
			return scanByData(s.store, p, params.Include, params.Exclude)
		}
	case 3:
		params := server.SearchParams{Partial: pick(partials)}
		return "partial", params, func(p storage.Principal) []metaquery.Match {
			metaSQL, err := metaquery.GenerateMetaQuery(params.Partial)
			if err != nil {
				t.Fatal(err)
			}
			tables, attrs := sql.PartialNames(params.Partial)
			return scanMetaQuery(t, s.store, s.sessionOf, p, metaSQL, fmt.Sprintf("names tables %v, attributes %v", tables, attrs))
		}
	case 4:
		params := server.SearchParams{MetaSQL: pick(metaQueries)}
		return "metaquery", params, func(p storage.Principal) []metaquery.Match {
			return scanMetaQuery(t, s.store, s.sessionOf, p, params.MetaSQL, "feature meta-query")
		}
	default:
		params := server.SearchParams{SQL: pick(probes)}
		if s.rng.Intn(3) > 0 {
			params.K = 1 + s.rng.Intn(40)
		}
		return "similar", params, func(p storage.Principal) []metaquery.Match { return scanSimilar(t, s.store, p, params.SQL) }
	}
}

// drain reads one random listing page by page at random page sizes and
// checks each page against the oracle as of that page. It returns the
// listing's kind and how many matches it had.
func (s *searcher) drain(t *testing.T) (string, int) {
	t.Helper()
	p := principals[s.rng.Intn(len(principals))]
	kind, params, oracle := s.listing(t)
	total := 0
	for pageNo := 0; ; pageNo++ {
		params.Limit = 1 + s.rng.Intn(30)
		cur := wireCursor{High: int64(s.store.HighWater())}
		if params.Cursor != "" {
			cur = decodeCursor(t, params.Cursor)
		}
		got := s.post(t, p, kind, params)

		left := -1 // the similar search's k caps the listing across pages
		if params.K > 0 {
			left = params.K - total
		}
		want, more := oraclePage(oracle(p), cur, params.Limit, left)
		describe := fmt.Sprintf("%s %+v as %+v, page %d (limit %d, cursor %+v)", kind, params, p, pageNo, params.Limit, cur)
		if len(got.Matches) != len(want) {
			t.Fatalf("%s: %d matches, oracle has %d", describe, len(got.Matches), len(want))
		}
		for i, m := range got.Matches {
			if m.Query.ID != int64(want[i].Record.ID) || m.Score != want[i].Score || m.Why != want[i].Why || m.Query.Text != want[i].Record.Text {
				t.Fatalf("%s: match %d is (q%d, %v, %q), oracle has (q%d, %v, %q)", describe, i,
					m.Query.ID, m.Score, m.Why, want[i].Record.ID, want[i].Score, want[i].Why)
			}
		}
		total += len(want)
		if (got.NextCursor != "") != more {
			t.Fatalf("%s: next cursor %q, oracle has more = %v", describe, got.NextCursor, more)
		}
		if !more {
			return kind, total
		}
		next, last := decodeCursor(t, got.NextCursor), want[len(want)-1]
		if next.High != cur.High || !next.Pos || next.After != int64(last.Record.ID) || next.Score != last.Score || next.Seen != total {
			t.Fatalf("%s: next cursor %+v does not point at the page's last match (q%d, %v) after %d matches", describe, next, last.Record.ID, last.Score, total)
		}
		params.Cursor = got.NextCursor
		if s.between != nil {
			s.between()
		}
	}
}

// drains reads n random listings and fails if a kind never matched anything:
// the test would compare empty lists.
func (s *searcher) drains(t *testing.T, n int) {
	t.Helper()
	matched := map[string]int{}
	for i := 0; i < n; i++ {
		kind, n := s.drain(t)
		matched[kind] += n
	}
	for _, kind := range []string{"keyword", "substring", "bydata", "partial", "metaquery", "similar"} {
		if matched[kind] == 0 {
			t.Fatalf("%d random searches: %s matched nothing, the test compares empty lists", n, kind)
		}
	}
}

func serve(t *testing.T, c *core.CQMS) string {
	t.Helper()
	ts := httptest.NewServer(server.New(c).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestIndexedSearchEqualsScanOracle is the equivalence test of the search
// read path: after an arbitrary history of every mutation that touches it,
// and again after WAL recovery, after a snapshot restore, after RestoreState
// and on a bootstrapped follower, listings of every search kind read through
// the v1 handler — page by page, at random page sizes, with writes landing
// between the pages — are, page for page, what a scan of the log (or the
// whole meta-query) gives.
func TestIndexedSearchEqualsScanOracle(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DefaultConfig()
	cfg.Durability = wal.DefaultConfig(dir)
	cfg.Durability.SyncPolicy = "off"
	open := func() *core.CQMS {
		c, err := core.Open(cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return c
	}
	rng := rand.New(rand.NewSource(20260926))
	stage := func(c *core.CQMS, ids []storage.QueryID, warmup int) *history {
		h := &history{rng: rng, store: c.Store(), ids: ids}
		for i := 0; i < warmup; i++ {
			h.step(t)
		}
		s := &searcher{rng: rng, url: serve(t, c), store: c.Store(), sessionOf: c.SessionOf}
		s.between = func() {
			for n := rng.Intn(3); n > 0; n-- {
				h.step(t)
			}
		}
		s.drains(t, 120)
		return h
	}

	// A live history.
	c := open()
	h := stage(c, nil, 300)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// WAL recovery: the log replays through Apply.
	c = open()
	h = stage(c, h.ids, 50)

	// Snapshot plus tail: the restore pass rebuilds the index, the tail
	// replays on top.
	if _, _, _, err := c.Durability().Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for i := 0; i < 40; i++ {
		h.step(t)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c = open()
	defer c.Close()
	if rec := c.Recovery(); rec == nil || rec.SnapshotSeq == 0 {
		t.Fatalf("expected a recovery from a snapshot, got %+v", rec)
	}
	h = stage(c, h.ids, 0)

	// RestoreState in place, from a snapshot of the store: its shapes keep
	// their numbers, so the log the store goes on writing still fits the
	// frames before it, which the follower below replays.
	snapDir := t.TempDir()
	if _, _, err := wal.WriteSnapshot(snapDir, 1, c.Store().CaptureState(nil)); err != nil {
		t.Fatal(err)
	}
	snap, err := wal.LatestSnapshot(snapDir)
	if err != nil || snap == nil {
		t.Fatalf("LatestSnapshot = %v, %v", snap, err)
	}
	if err := c.Store().RestoreState(snap.State); err != nil {
		t.Fatal(err)
	}
	h = stage(c, h.ids, 0)

	// A follower bootstrapped from the primary's snapshot and WAL tail.
	follower, err := core.OpenFollower(engine.New(), core.DefaultConfig(), client.New(serve(t, c), client.WithAdmin()))
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := follower.StartFollower(ctx); err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if st := follower.ReplicationStatus(); st.AppliedSeq >= c.Durability().LastSeq() && st.LastError == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", follower.ReplicationStatus())
		}
	}
	fs := &searcher{rng: rng, url: serve(t, follower), store: follower.Store(), sessionOf: follower.SessionOf}
	fs.drains(t, 120)
	pt, ptg := c.Store().ShapeCount(), c.Store().SearchIndexSize()
	ft, ftg := follower.Store().ShapeCount(), follower.Store().SearchIndexSize()
	if ft == 0 || ft != pt || ftg != ptg {
		t.Fatalf("follower index holds %d shapes / %d trigrams, the primary %d / %d", ft, ftg, pt, ptg)
	}
}

// TestNeedlesCoverTheCases keeps the generator honest: it must produce short
// needles, multi-byte needles and mixed case, or the equivalence test above
// stops testing what it says.
func TestNeedlesCoverTheCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var short, multibyte, upper, none bool
	for i := 0; i < 500; i++ {
		n := needle(rng)
		short = short || len(n) < 3
		multibyte = multibyte || utf8.RuneCountInString(n) < len(n)
		upper = upper || n != strings.ToLower(n)
		none = none || n == "no-such-term"
	}
	if !short || !multibyte || !upper || !none {
		t.Fatalf("needle generator misses a case: short=%v multibyte=%v upper=%v zero-match=%v", short, multibyte, upper, none)
	}
}
