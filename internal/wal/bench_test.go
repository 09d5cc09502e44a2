package wal

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/storage"
)

// BenchmarkLogAppend measures the raw frame-append path in isolation:
// sequence assignment plus encoding into the pending buffer, with the
// committer draining in the background. Under SyncOff nothing waits on
// durability, so allocs/op here is the per-record allocation cost of
// AppendAsync plus WaitDurable — the group-commit refactor keeps it at zero
// (the pending buffer and the frame header are reused across appends).
func BenchmarkLogAppend(b *testing.B) {
	l, err := OpenLog(testConfig(b.TempDir()), nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte(`{"op":"put","record":{"id":1,"text":"SELECT * FROM runs WHERE quality > 0.9"}}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := appendDurable(l, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
}

// snapshotBenchStore builds an n-record store the way recovery would hold
// it: a few hundred distinct parsed shapes with samples, 40 users.
func snapshotBenchStore(b *testing.B, n int) *storage.Store {
	b.Helper()
	variants := make([]*storage.QueryRecord, 0, 200)
	for i := 0; i < 200; i++ {
		var text string
		switch i % 3 {
		case 0:
			text = fmt.Sprintf("SELECT WaterTemp.lake, WaterTemp.temp FROM WaterTemp WHERE WaterTemp.temp < %d", i%37)
		case 1:
			text = "SELECT Observations.id, Stations.name FROM Observations, Stations WHERE Observations.station = Stations.id AND Stations.id > " + fmt.Sprint(i)
		default:
			text = fmt.Sprintf("SELECT Stations.name FROM Stations WHERE Stations.id = %d", i)
		}
		rec, err := storage.NewRecordFromSQL(text)
		if err != nil {
			b.Fatal(err)
		}
		rec.Sample = &storage.OutputSample{
			Columns: []string{"lake", "temp", "day"}, TotalRows: 40, Truncated: true,
			Rows: [][]string{{"Lake Union", "11.5021", "17"}, {"Lake Chelan", "9.2210", "18"}, {"Lake Union", "12.0417", "19"}},
		}
		variants = append(variants, rec)
	}
	store := storage.NewStore()
	base := time.Date(2026, 1, 5, 9, 0, 0, 0, time.UTC)
	batch := make([]*storage.QueryRecord, 0, 256)
	for i := 0; i < n; i++ {
		rec := variants[i%len(variants)].Clone()
		rec.User, rec.Group = fmt.Sprintf("user%02d", i%40), "limnology"
		rec.IssuedAt = base.Add(time.Duration(i) * 30 * time.Second)
		rec.Stats = storage.RuntimeStats{ExecTime: time.Duration(200+i%3000) * time.Microsecond, ResultRows: 40, ResultColumns: 3, ExecutedAt: rec.IssuedAt}
		if batch = append(batch, rec); len(batch) == cap(batch) || i == n-1 {
			mustPutBatch(b, store, batch)
			batch = make([]*storage.QueryRecord, 0, 256)
		}
	}
	return store
}

// heapObjects is the heap-object footprint after a collection.
func heapObjects() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64())
}

// peakHeapDuring runs fn while sampling the heap-object footprint every
// millisecond and returns the highest sample.
func peakHeapDuring(fn func()) float64 {
	var peak float64
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, float64(sample[0].Value.Uint64()))
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(done)
	<-finished
	return peak
}

// BenchmarkSnapshotWriteRestore prices a snapshot at 10^4 and 10^5 records:
// writing one from a live store (capture + chunked encode + fsync + verify,
// what Compact pays) and restoring a fresh store from it. peak-heap-x is the
// peak heap-object footprint over the steady state: over the heap holding
// the store for a write (1.0 = the write held nothing extra), over the heap
// holding the finished copy for a restore.
func BenchmarkSnapshotWriteRestore(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		store := snapshotBenchStore(b, n)
		dir := b.TempDir()
		b.Run(fmt.Sprintf("write/%d", n), func(b *testing.B) {
			var ratio float64
			var info SnapshotInfo
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				steady := heapObjects()
				peak := peakHeapDuring(func() {
					path, _, err := WriteSnapshot(dir, uint64(n), store.CaptureState(nil))
					if err == nil {
						info, err = VerifySnapshot(path)
					}
					if err != nil {
						b.Fatal(err)
					}
				})
				ratio = max(ratio, peak/steady)
			}
			b.ReportMetric(ratio, "peak-heap-x")
			b.ReportMetric(float64(info.Bytes)/float64(n), "B/record")
			b.ReportMetric(float64(info.Frames), "frames")
		})
		b.Run(fmt.Sprintf("restore/%d", n), func(b *testing.B) {
			var ratio float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var restored *storage.Store
				runtime.GC()
				peak := peakHeapDuring(func() {
					snap, err := latestDecoded(dir)
					if err != nil || snap == nil {
						b.Fatalf("latestDecoded = %v, %v", snap, err)
					}
					restored = storage.NewStore()
					if err := restored.RestoreState(snap.State); err != nil {
						b.Fatal(err)
					}
				})
				if restored.Count() != n {
					b.Fatalf("restored %d records, want %d", restored.Count(), n)
				}
				ratio = max(ratio, peak/heapObjects())
				runtime.KeepAlive(restored)
			}
			b.ReportMetric(ratio, "peak-heap-x")
		})
	}
}
