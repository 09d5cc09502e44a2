package storage

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// checkpointSub is a bus subscriber that counts records and supports the
// Checkpoint/Restore contract, recording which path brought it back.
type checkpointSub struct {
	count    int
	source   string // "live", "checkpoint" or "rebuilt"
	failWith error  // returned by Restore when set
}

func (c *checkpointSub) attach(t *testing.T, s *Store, name string) {
	t.Helper()
	rebuild := func() {
		c.count = s.Count()
		c.source = "rebuilt"
	}
	s.Subscribe(name, func(m *Mutation) {
		switch m.Op {
		case OpPut:
			if m.Prev() == nil {
				c.count++
			}
		case OpDelete:
			c.count--
		}
	}, SubscribeOptions{
		Init:  func() { c.count = s.Count(); c.source = "live" },
		Reset: rebuild,
		Checkpoint: func() (int, []byte, error) {
			return 1, []byte(fmt.Sprintf("%d", c.count)), nil
		},
		Restore: func(version int, data []byte) error {
			if c.failWith != nil {
				return c.failWith
			}
			if version != 1 {
				return fmt.Errorf("unknown version %d", version)
			}
			if _, err := fmt.Sscanf(string(data), "%d", &c.count); err != nil {
				return err
			}
			c.source = "checkpoint"
			return nil
		},
	})
}

// TestCaptureWithCheckpoints proves checkpoints are captured in the same
// critical section as the state and carried by name.
func TestCaptureWithCheckpoints(t *testing.T) {
	s := NewStore()
	var a, b checkpointSub
	a.attach(t, s, "alpha")
	b.attach(t, s, "beta")
	for i := 0; i < 3; i++ {
		mustPut(t, s, busRecord(t, "SELECT temp FROM WaterTemp", "alice"))
	}
	st, cps := s.CaptureWithCheckpoints(nil)
	if len(st.Records) != 3 {
		t.Fatalf("state has %d records, want 3", len(st.Records))
	}
	want := []SubscriberCheckpoint{
		{Name: "alpha", Version: 1, Data: []byte("3")},
		{Name: "beta", Version: 1, Data: []byte("3")},
	}
	if !reflect.DeepEqual(cps, want) {
		t.Fatalf("checkpoints = %+v, want %+v", cps, want)
	}
}

// TestRestoreStateWithCheckpoints covers the three restore outcomes: a
// usable checkpoint restores without a rebuild, a failing Restore falls back
// to Reset, and a subscriber with no checkpoint in the snapshot resets too.
func TestRestoreStateWithCheckpoints(t *testing.T) {
	src := NewStore()
	for i := 0; i < 5; i++ {
		mustPut(t, src, busRecord(t, "SELECT temp FROM WaterTemp", "alice"))
	}
	st := src.State()

	dst := NewStore()
	var good, bad, missing checkpointSub
	bad.failWith = errors.New("boom")
	good.attach(t, dst, "good")
	bad.attach(t, dst, "bad")
	missing.attach(t, dst, "missing")
	cps := []SubscriberCheckpoint{
		{Name: "good", Version: 1, Data: []byte("5")},
		{Name: "bad", Version: 1, Data: []byte("5")},
		{Name: "stale-name", Version: 1, Data: []byte("99")},
	}
	restored, rebuilt := dst.RestoreStateWithCheckpoints(st, cps)
	if !reflect.DeepEqual(restored, []string{"good"}) {
		t.Errorf("restored = %v, want [good]", restored)
	}
	if !reflect.DeepEqual(rebuilt, []string{"bad", "missing"}) {
		t.Errorf("rebuilt = %v, want [bad missing]", rebuilt)
	}
	for _, tc := range []struct {
		name   string
		sub    *checkpointSub
		source string
	}{{"good", &good, "checkpoint"}, {"bad", &bad, "rebuilt"}, {"missing", &missing, "rebuilt"}} {
		if tc.sub.source != tc.source {
			t.Errorf("%s: source = %q, want %q", tc.name, tc.sub.source, tc.source)
		}
		if tc.sub.count != 5 {
			t.Errorf("%s: count = %d, want 5", tc.name, tc.sub.count)
		}
	}
	// Mutations after the restore keep flowing to every subscriber.
	mustPut(t, dst, busRecord(t, "SELECT city FROM CityLocations", "bob"))
	for _, sub := range []*checkpointSub{&good, &bad, &missing} {
		if sub.count != 6 {
			t.Errorf("post-restore count = %d, want 6", sub.count)
		}
	}
}
