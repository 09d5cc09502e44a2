package storage

import (
	"testing"

	"repro/internal/telemetry"
)

// countingSub is a bus subscriber that counts records and rebuilds the count
// from the store in its Rebuild hook, recording how often it rebuilt.
type countingSub struct {
	count, rebuilds int
}

func (c *countingSub) attach(s *Store, name string) {
	rebuild := func() {
		c.count = s.Count()
		c.rebuilds++
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
	}, SubscribeOptions{Rebuild: rebuild})
}

// TestCaptureState proves the capture callback runs in the same critical
// section that collects the records, and that the records come in insertion
// order as the store holds them.
func TestCaptureState(t *testing.T) {
	s := NewStore()
	var ids []QueryID
	for i := 0; i < 3; i++ {
		ids = append(ids, mustPut(t, s, busRecord(t, "SELECT temp FROM WaterTemp", "alice")))
	}
	if err := s.Delete(ids[1], Principal{Admin: true}); err != nil {
		t.Fatal(err)
	}
	var count int
	st := s.CaptureState(func() { count = s.Count() })
	if count != 2 || len(st.Records) != 2 || st.Records[0].ID != ids[0] || st.Records[1].ID != ids[2] || st.NextID != ids[2] {
		t.Fatalf("captured %d records (count %d under the lock), next ID %d", len(st.Records), count, st.NextID)
	}
}

// TestRestoreStateResetsEverySubscriber: a restore rebuilds every subscriber
// from the restored records, once each, and times each rebuild — on attach
// and on restore — as
// cqms_store_subscriber_rebuild_seconds{subscriber}.
func TestRestoreStateResetsEverySubscriber(t *testing.T) {
	src := NewStore()
	for i := 0; i < 5; i++ {
		mustPut(t, src, busRecord(t, "SELECT temp FROM WaterTemp", "alice"))
	}
	st := src.State()

	reg := telemetry.NewRegistry()
	dst := NewStore()
	dst.EnableMetrics(reg)
	subs := map[string]*countingSub{"stats": {}, "sessions": {}}
	for name, sub := range subs {
		sub.attach(dst, name)
	}
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	rebuilt := reg.HistogramVec("cqms_store_subscriber_rebuild_seconds", "", nil, "subscriber")
	for name, sub := range subs {
		if sub.rebuilds != 2 || sub.count != 5 {
			t.Errorf("%s: %d rebuilds, count %d; want one on attach and one on restore, and 5", name, sub.rebuilds, sub.count)
		}
		if n := rebuilt.With(name).Count(); n != 2 {
			t.Errorf("%s: %d rebuilds timed, want 2", name, n)
		}
	}
	// Mutations after the restore keep flowing to every subscriber.
	mustPut(t, dst, busRecord(t, "SELECT city FROM CityLocations", "bob"))
	for name, sub := range subs {
		if sub.count != 6 {
			t.Errorf("%s: post-restore count = %d, want 6", name, sub.count)
		}
	}
}
