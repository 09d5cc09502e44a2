package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
)

// peakRSSMB reads VmHWM, the process's resident-set high-water mark. Each
// workload runs in a process of its own, so the mark is that workload's.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest) // "123456 kB"
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeNames are the runtime/metrics series the benchmark samples. The Go
// heap and collector are the one resource every layer shares.
var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
	"/gc/pauses:seconds",
}

// runtimeSample is one reading of runtimeNames.
type runtimeSample struct {
	scalar map[string]float64
	pauses *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := runtimeSample{scalar: map[string]float64{}}
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out.scalar[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out.scalar[s.Name] = s.Value.Float64()
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			// Read reuses the histogram's backing arrays on the next call.
			out.pauses = &metrics.Float64Histogram{
				Counts:  append([]uint64(nil), h.Counts...),
				Buckets: append([]float64(nil), h.Buckets...),
			}
		}
	}
	return out
}

// runtimeDelta turns two readings and an op count into the runtime.* layer
// metrics.
func runtimeDelta(before, after runtimeSample, ops int) map[string]float64 {
	d := func(name string) float64 { return after.scalar[name] - before.scalar[name] }
	busy := d("/cpu/classes/total:cpu-seconds") - d("/cpu/classes/idle:cpu-seconds")
	out := map[string]float64{
		"runtime.gc_cpu_frac":     ratio(d("/cpu/classes/gc/total:cpu-seconds"), busy),
		"runtime.heap_live_mb":    after.scalar["/gc/heap/live:bytes"] / (1 << 20),
		"runtime.allocs_per_op":   ratio(d("/gc/heap/allocs:objects"), float64(ops)),
		"runtime.alloc_kb_per_op": ratio(d("/gc/heap/allocs:bytes"), float64(ops)) / 1024,
	}
	out["runtime.gc_pause_p99_us"] = pauseQuantile(before.pauses, after.pauses, 0.99) * 1e6
	return out
}

// pauseQuantile is the q-quantile of the stop-the-world pauses that happened
// between two readings, as the upper edge of the bucket holding it.
func pauseQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if after == nil {
		return 0
	}
	counts := append([]uint64(nil), after.Counts...)
	if before != nil && len(before.Counts) == len(counts) {
		for i := range counts {
			counts[i] -= before.Counts[i]
		}
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q*float64(total) + 0.5)
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= target {
			// Buckets has one more edge than Counts; the last edge may be +Inf.
			hi := after.Buckets[i+1]
			if hi > 1e9 {
				hi = after.Buckets[i]
			}
			return hi
		}
	}
	return after.Buckets[len(after.Buckets)-2]
}
