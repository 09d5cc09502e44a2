package storage

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestCancelledScanStopsOverInvisibleRecords: a scan checks its context every
// ScanCheckEvery records it examines, whether the principal may see them or
// not, so a cancelled scan over another user's private records stops within
// one check interval instead of loading every one of them. Uncancelled, each
// scan examines them all and hands none to its callback.
func TestCancelledScanStopsOverInvisibleRecords(t *testing.T) {
	s := NewStore()
	const total = 10 * ScanCheckEvery
	for i := 0; i < total; i++ {
		putQuery(t, s, fmt.Sprintf("SELECT lake FROM WaterTemp WHERE temp < %d", i%8), "alice", "limnology", VisibilityPrivate)
	}
	bob := Principal{User: "bob", Groups: []string{"limnology"}}
	view := s.Snapshot()
	scans := map[string]func(ctx context.Context, fn func(*QueryRecord) bool) int{
		"keyword": func(ctx context.Context, fn func(*QueryRecord) bool) int {
			sel := s.SelectTexts([]string{"watertemp"}, func(text, _ string) bool { return strings.Contains(text, "watertemp") })
			return sel.ScanAnnotated(ctx, view.Limit(), bob, fn) + sel.Scan(ctx, 0, view.Limit(), nil, bob, fn)
		},
		"by-table": func(ctx context.Context, fn func(*QueryRecord) bool) int {
			return view.ScanByTable(ctx, "WaterTemp", bob, fn)
		},
		"history": func(ctx context.Context, fn func(*QueryRecord) bool) int {
			return view.ScanByUserAfter(ctx, "alice", 0, bob, fn)
		},
		"table": func(ctx context.Context, fn func(*QueryRecord) bool) int {
			return view.ScanAfter(ctx, 0, bob, fn)
		},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, scan := range scans {
		visited := func(rec *QueryRecord) bool {
			t.Errorf("%s: bob was handed alice's private q%d", name, rec.ID)
			return true
		}
		if n := scan(context.Background(), visited); n != total {
			t.Errorf("%s: examined %d records, want all %d", name, n, total)
		}
		if n := scan(cancelled, visited); n > ScanCheckEvery {
			t.Errorf("%s under a cancelled context: examined %d records, want <= %d (one check interval)", name, n, ScanCheckEvery)
		}
	}
}
