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

// paginateMatches pages a ranked match list. Matches are filtered to the
// cursor's pinned membership (ID <= High), put into the deterministic
// (score desc, ID asc) order, and the page resumes strictly after the
// cursor's position — so a deletion between pages drops only the deleted
// item and concurrent inserts never appear mid-listing. The input must be
// the full (untruncated) match set over a superset of the pinned membership,
// otherwise pinned records can silently drop out; a listing-wide cap (the
// similar search's k) is applied here, via totalCap (0 = uncapped), so the
// cap never interacts with the membership filter. Returns the page and the
// encoded next cursor ("" when the listing is exhausted).
func paginateMatches(matches []metaquery.Match, cur pageCursor, limit, totalCap int) ([]metaquery.Match, string) {
	kept := matches[:0]
	for _, m := range matches {
		if int64(m.Record.ID) <= cur.High {
			kept = append(kept, m)
		}
	}
	metaquery.SortMatches(kept)
	start := 0
	if cur.Pos {
		for start < len(kept) {
			m := kept[start]
			if m.Score < cur.Score ||
				(m.Score == cur.Score && int64(m.Record.ID) > cur.After) {
				break
			}
			start++
		}
	}
	page := kept[start:]
	if totalCap > 0 {
		left := totalCap - cur.Seen
		if left <= 0 {
			return nil, ""
		}
		if len(page) > left {
			page = page[:left]
		}
	}
	more := len(page) > limit
	if more {
		page = page[:limit]
	}
	if !more || len(page) == 0 {
		return page, ""
	}
	return page, cur.after(page).encode()
}

// after returns the cursor that resumes the listing behind page, a non-empty
// page read at cur.
func (cur pageCursor) after(page []metaquery.Match) pageCursor {
	last := page[len(page)-1]
	return pageCursor{
		Kind: cur.Kind, High: cur.High,
		After: int64(last.Record.ID), Score: last.Score, Pos: true,
		Seen: cur.Seen + len(page),
	}
}

// newMatchCursor mints the first-page cursor for a ranked listing, pinning
// membership at the store's current high-water mark.
func newMatchCursor(kind string, high storage.QueryID) pageCursor {
	return pageCursor{Kind: kind, High: int64(high)}
}
