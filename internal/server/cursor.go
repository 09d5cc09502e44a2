package server

import (
	"encoding/base64"
	"encoding/json"

	"repro/internal/metaquery"
	"repro/internal/storage"
)

// Pagination bounds: every v1 list endpoint returns at most maxPageLimit
// items per page, defaultPageLimit when the client does not ask.
const (
	defaultPageLimit = 50
	maxPageLimit     = 500
)

// effectiveLimit clamps a client-supplied page size into [1, maxPageLimit],
// applying the default when unset.
func effectiveLimit(n int) int {
	switch {
	case n <= 0:
		return defaultPageLimit
	case n > maxPageLimit:
		return maxPageLimit
	default:
		return n
	}
}

// pageCursor is the decoded form of the opaque cursor string. Kind binds a
// cursor to the endpoint family that minted it; High pins the listing's
// membership at the store's ID high-water mark observed on the first page,
// so later pages exclude queries inserted since (storage.SnapshotAt
// semantics); After/Score record the position of the last item returned.
type pageCursor struct {
	Kind  string  `json:"k"`
	High  int64   `json:"h,omitempty"`
	After int64   `json:"a,omitempty"`
	Score float64 `json:"s,omitempty"`
	Pos   bool    `json:"p,omitempty"`
	// Seen counts items already returned, for listings with a total cap
	// (the similar search's k) enforced across pages.
	Seen int `json:"n,omitempty"`
}

// encode serialises the cursor into the opaque wire form.
func (c pageCursor) encode() string {
	b, _ := json.Marshal(c)
	return base64.RawURLEncoding.EncodeToString(b)
}

// decodePageCursor parses an opaque cursor and checks it was minted by the
// given endpoint family. An empty cursor starts a fresh listing.
func decodePageCursor(raw, kind string) (pageCursor, error) {
	if raw == "" {
		return pageCursor{Kind: kind}, nil
	}
	b, err := base64.RawURLEncoding.DecodeString(raw)
	if err != nil {
		return pageCursor{}, Errorf(CodeInvalidArgument, "malformed cursor")
	}
	var c pageCursor
	if err := json.Unmarshal(b, &c); err != nil {
		return pageCursor{}, Errorf(CodeInvalidArgument, "malformed cursor")
	}
	if c.Kind != kind {
		return pageCursor{}, Errorf(CodeInvalidArgument,
			"cursor was issued by %q, not by %q", c.Kind, kind)
	}
	return c, nil
}

// position is the listing position a search cursor holds.
func (c pageCursor) position() metaquery.Cursor {
	return metaquery.Cursor{
		High: storage.QueryID(c.High), After: storage.QueryID(c.After), Score: c.Score, Pos: c.Pos, Seen: c.Seen,
	}
}

// next mints the cursor that resumes the listing behind page, a non-empty
// page read at c.
func (c pageCursor) next(page metaquery.Page) string {
	last := page.Matches[len(page.Matches)-1]
	return pageCursor{
		Kind: c.Kind, High: int64(page.High),
		After: int64(last.Record.ID), Score: last.Score, Pos: true,
		Seen: c.Seen + len(page.Matches),
	}.encode()
}
