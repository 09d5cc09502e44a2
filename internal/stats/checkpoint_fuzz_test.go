package stats

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// keyCount is one hand-written counter of a section.
type keyCount struct {
	key string
	n   int64
}

// appendBucket hand-encodes one bucket the way Checkpoint writes it: the
// query count, the user counts, one fingerprint counter per entry of fps
// (keyed by the first byte of its key), one table per entry of tables, each
// with its display casing counted as often and no attributes, predicates or
// joins, and no log-wide predicates. Entries are written as given, duplicates
// and zeros included.
func appendBucket(dst []byte, queries int64, users, fps, tables []keyCount) []byte {
	dst = binary.AppendVarint(dst, queries)
	dst = binary.AppendUvarint(dst, uint64(len(users)))
	for _, u := range users {
		dst = binary.AppendVarint(wire.AppendString(dst, u.key), u.n)
	}
	dst = binary.AppendUvarint(dst, uint64(len(fps)))
	for _, f := range fps {
		dst = binary.AppendVarint(binary.LittleEndian.AppendUint64(dst, uint64(f.key[0])), f.n)
	}
	dst = binary.AppendUvarint(dst, uint64(len(tables)))
	for _, tb := range tables {
		dst = binary.AppendVarint(wire.AppendString(dst, tb.key), tb.n)
		dst = binary.AppendUvarint(dst, 1)
		dst = binary.AppendVarint(wire.AppendString(dst, "WaterTemp"), max(tb.n, 1))
		dst = append(dst, 0, 0, 0) // attributes, predicates, joins
	}
	return append(dst, 0) // predicates
}

// brokenStatsSections returns a good section — two of alice's private
// queries over WaterTemp — and one corruption per rule Restore enforces; they
// are also the committed seed corpus of FuzzStatsRestore
// (testdata/fuzz/FuzzStatsRestore, one file a name).
func brokenStatsSections() (good []byte, broken map[string][]byte) {
	alice := []keyCount{{"alice", 2}}
	fp := []keyCount{{"\x07", 2}}
	table := []keyCount{{"watertemp", 2}}
	section := func(all, owner []byte, owners int) []byte {
		data := append(append([]byte(nil), all...), appendBucket(nil, 0, nil, nil, nil)...) // public: empty
		data = binary.AppendUvarint(data, uint64(owners))
		for ; owners > 0; owners-- {
			data = append(wire.AppendString(data, "alice"), owner...)
		}
		return data
	}
	bucket := appendBucket(nil, 2, alice, fp, table)
	withAll := func(all []byte) []byte { return section(all, bucket, 1) }
	good = withAll(bucket)
	return good, map[string][]byte{
		"query-count-negative":     withAll(appendBucket(nil, -1, alice, fp, table)),
		"user-counted-zero-times":  withAll(appendBucket(nil, 2, []keyCount{{"alice", 0}}, fp, table)),
		"user-listed-twice":        withAll(appendBucket(nil, 2, []keyCount{{"alice", 1}, {"alice", 1}}, fp, table)),
		"fingerprint-negative":     withAll(appendBucket(nil, 2, alice, []keyCount{{"\x07", -2}}, table)),
		"fingerprint-listed-twice": withAll(appendBucket(nil, 2, alice, []keyCount{{"\x07", 1}, {"\x07", 1}}, table)),
		"table-counted-zero-times": withAll(appendBucket(nil, 2, alice, fp, []keyCount{{"watertemp", 0}})),
		"table-listed-twice":       withAll(appendBucket(nil, 2, alice, fp, []keyCount{{"watertemp", 1}, {"watertemp", 1}})),
		"owner-bucket-empty":       section(bucket, appendBucket(nil, 0, nil, nil, nil), 1),
		"owner-listed-twice":       section(bucket, bucket, 2),
		"trailing-byte":            append(withAll(bucket), 0),
		"truncated":                good[: len(good)-3 : len(good)-3],
		"owner-count-beyond-data":  {0xff, 0xff, 0x03},
	}
}

// TestStatsRestoreRefusesCorruptSections corrupts a good section one rule at
// a time; each must be refused and leave the tracker as it was.
func TestStatsRestoreRefusesCorruptSections(t *testing.T) {
	good, broken := brokenStatsSections()
	tr := New()
	if err := tr.Restore(CheckpointVersion, good); err != nil {
		t.Fatalf("the good section was refused: %v", err)
	}
	want := trackerCounts(tr)
	if tr.all.queries != 2 || tr.owners["alice"] == nil || tr.all.tables["watertemp"].names["WaterTemp"] != 2 {
		t.Fatalf("the good section restored %+v", want)
	}
	for name, data := range broken {
		if err := tr.Restore(CheckpointVersion, data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if got := trackerCounts(tr); !reflect.DeepEqual(got, want) {
		t.Errorf("a refused section changed the tracker: %+v", got)
	}
}

// counts is a tracker's exact counters, without the top-K summaries a restore
// derives from them.
type counts struct {
	all, public bucket
	owners      map[string]bucket
}

func trackerCounts(t *Tracker) counts {
	strip := func(b *bucket) bucket {
		return bucket{queries: b.queries, users: b.users, fingerprints: b.fingerprints, tables: b.tables, preds: b.preds}
	}
	c := counts{all: strip(t.all), public: strip(t.public), owners: make(map[string]bucket, len(t.owners))}
	for user, b := range t.owners {
		c.owners[user] = strip(b)
	}
	return c
}

// FuzzStatsRestore feeds the decoder arbitrary bytes — the section arrives
// over the replication stream — and requires that it never panics and that
// whatever it accepts round-trips: decode, encode, decode gives the same
// counters.
func FuzzStatsRestore(f *testing.F) {
	good, _ := brokenStatsSections()
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		a := New()
		if err := a.Restore(CheckpointVersion, data); err != nil {
			return
		}
		version, again, err := a.Checkpoint()
		if err != nil {
			t.Fatalf("Checkpoint of an accepted section: %v", err)
		}
		b := New()
		if err := b.Restore(version, again); err != nil {
			t.Fatalf("re-encoding of %x refused: %v", data, err)
		}
		if got, want := trackerCounts(b), trackerCounts(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip of %x: %+v, want %+v", data, got, want)
		}
	})
}
