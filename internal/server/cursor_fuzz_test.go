package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// cursorFuzzServer is a server over a small log with annotated and plain
// matches for "watertemp", so cursors land before, inside and past a listing
// with two score levels. Every query has an output sample holding
// "Lake Union", so the fuzzSearches match all of it.
func cursorFuzzServer(tb testing.TB) (*Server, storage.QueryID) {
	tb.Helper()
	c := core.New(core.DefaultConfig())
	var ids []storage.QueryID
	for i := 0; i < 12; i++ {
		rec, err := storage.NewRecordFromSQL("SELECT lake FROM WaterTemp")
		if err != nil {
			tb.Fatal(err)
		}
		rec.User, rec.Visibility = "alice", storage.VisibilityPublic
		rec.Sample = &storage.OutputSample{Columns: []string{"lake"}, Rows: [][]string{{"Lake Union"}}, TotalRows: 1}
		id, err := c.Store().Put(rec)
		if err != nil {
			tb.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := c.Annotate(ids[3], storage.Principal{User: "alice"}, storage.Annotation{Text: "watertemp of cold lakes"}); err != nil {
		tb.Fatal(err)
	}
	return New(c), c.Store().HighWater()
}

// fuzzSearches are the requests the fuzz target posts cursors to: the
// search-index body, the filter body and the ranked body with a total cap.
var fuzzSearches = map[string]SearchParams{
	"keyword": {Keywords: []string{"watertemp"}},
	"bydata":  {Include: []string{"lake union"}},
	"similar": {SQL: "SELECT lake FROM WaterTemp", K: fuzzK},
}

const fuzzK = 3

// searchWithCursor posts a keyword search carrying the raw cursor.
func searchWithCursor(tb testing.TB, srv *Server, raw string) (int, SearchResponse, ErrorResponse) {
	return searchKindWithCursor(tb, srv, "keyword", raw)
}

// searchKindWithCursor posts the fuzz search of the given kind carrying the
// raw cursor.
func searchKindWithCursor(tb testing.TB, srv *Server, kind, raw string) (int, SearchResponse, ErrorResponse) {
	tb.Helper()
	params := fuzzSearches[kind]
	params.Limit, params.Cursor = 5, raw
	body, _ := json.Marshal(params)
	req := httptest.NewRequest(http.MethodPost, "/v1/search/"+kind, strings.NewReader(string(body)))
	req.Header.Set(HeaderUser, "alice")
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	var page SearchResponse
	var envelope ErrorResponse
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
			tb.Fatalf("decoding page: %v", err)
		}
	} else if err := json.Unmarshal(w.Body.Bytes(), &envelope); err != nil {
		tb.Fatalf("decoding envelope: %v", err)
	}
	return w.Code, page, envelope
}

// FuzzDecodePageCursor feeds arbitrary client-supplied cursor strings to the
// decoder and to a live search handler. The decoder never panics, rejects
// anything malformed or minted by another endpoint family as invalid_argument
// and round-trips what it accepts; the handler answers every cursor with a
// page or an invalid_argument envelope, and a page never steps outside the
// cursor's pin or back over its position. Every accepted cursor is also
// posted, re-minted for their routes, to a query-by-data search (the filter
// body) and a similar search (the ranked body), whose page also never takes
// the listing past its k.
func FuzzDecodePageCursor(f *testing.F) {
	const kind = "search:keyword"
	f.Add("")
	f.Add("!!garbage")
	f.Add("bm90IGpzb24")
	f.Add(pageCursor{Kind: kind, High: 12}.encode())
	f.Add(pageCursor{Kind: kind, High: 12, After: 4, Score: 1, Pos: true, Seen: 1}.encode())
	f.Add(pageCursor{Kind: kind, High: 12, After: 7, Score: 0.8, Pos: true, Seen: 5}.encode())
	f.Add(pageCursor{Kind: kind, High: 12, After: 1 << 40, Score: 0.8, Pos: true}.encode())
	f.Add(pageCursor{Kind: kind, High: 12, After: 2, Score: 0.1, Pos: true}.encode())
	f.Add(pageCursor{Kind: kind, High: -5, After: -9, Score: -1e308, Pos: true}.encode())
	f.Add(pageCursor{Kind: kind, High: 1<<63 - 1, After: 1<<63 - 1, Score: 1e308, Pos: true, Seen: 1 << 40}.encode())
	f.Add(pageCursor{Kind: "history", High: 12, After: 3}.encode())
	f.Add(pageCursor{Kind: "search:substring", High: 12, After: 3, Score: 1, Pos: true}.encode())

	srv, _ := cursorFuzzServer(f)
	f.Fuzz(func(t *testing.T, raw string) {
		cur, err := decodePageCursor(raw, kind)
		status, page, envelope := searchWithCursor(t, srv, raw)
		if err != nil {
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Code != CodeInvalidArgument {
				t.Fatalf("decodePageCursor(%q) = %v, want an invalid_argument error", raw, err)
			}
			if status != http.StatusBadRequest || envelope.Error.Code != CodeInvalidArgument {
				t.Fatalf("handler answered a rejected cursor with %d %q", status, envelope.Error.Code)
			}
			return
		}
		if cur.Kind != kind {
			t.Fatalf("decodePageCursor(%q) accepted kind %q", raw, cur.Kind)
		}
		if again, err := decodePageCursor(cur.encode(), kind); err != nil || again != cur {
			t.Fatalf("encode/decode of %+v gave %+v, %v", cur, again, err)
		}
		for _, kind := range []string{"keyword", "bydata", "similar"} {
			if kind != "keyword" {
				cur.Kind = "search:" + kind
				status, page, envelope = searchKindWithCursor(t, srv, kind, cur.encode())
			}
			if status != http.StatusOK {
				t.Fatalf("%s handler answered a well-formed cursor %+v with %d %q", kind, cur, status, envelope.Error.Code)
			}
			if len(page.Matches) > 5 {
				t.Fatalf("%s page holds %d matches, limit was 5", kind, len(page.Matches))
			}
			if left := max(fuzzK-max(cur.Seen, 0), 0); kind == "similar" && len(page.Matches) > left {
				t.Fatalf("cursor %+v: similar page holds %d matches, %d of k=%d are left", cur, len(page.Matches), left, fuzzK)
			}
			for _, m := range page.Matches {
				if cur.High != 0 && m.Query.ID > cur.High {
					t.Fatalf("%s cursor %+v: q%d lies outside the pin", kind, cur, m.Query.ID)
				}
				if cur.Pos && (m.Score > cur.Score || (m.Score == cur.Score && m.Query.ID <= cur.After)) {
					t.Fatalf("%s cursor %+v: (q%d, %v) is not after the cursor", kind, cur, m.Query.ID, m.Score)
				}
			}
		}
	})
}

// TestCursorPastTheListing pins what the fuzz target only bounds: a
// well-formed cursor positioned behind the last match gets an empty last
// page, not an error.
func TestCursorPastTheListing(t *testing.T) {
	srv, high := cursorFuzzServer(t)
	const kind = "search:keyword"
	for _, cur := range []pageCursor{
		{Kind: kind, High: int64(high), After: int64(high), Score: 0.8, Pos: true},
		{Kind: kind, High: int64(high), After: 1 << 50, Score: 0.8, Pos: true},
		{Kind: kind, High: int64(high), After: 1, Score: 0.5, Pos: true},
		{Kind: kind, High: int64(high), After: 1, Score: -3, Pos: true},
	} {
		status, page, envelope := searchWithCursor(t, srv, cur.encode())
		if status != http.StatusOK || len(page.Matches) != 0 || page.NextCursor != "" {
			t.Errorf("cursor %+v: status %d (%s), %d matches, next %q; want an empty last page",
				cur, status, envelope.Error.Code, len(page.Matches), page.NextCursor)
		}
	}
	// The same log read from the start has both score levels.
	status, page, _ := searchWithCursor(t, srv, "")
	if status != http.StatusOK || len(page.Matches) != 5 || page.Matches[0].Score <= page.Matches[1].Score || page.NextCursor == "" {
		t.Fatalf("first page: status %d, %+v", status, page)
	}
}
