package profiler

import (
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/telemetry"
)

func newCapturingProfiler(t testing.TB) (*Profiler, *storage.Store, *telemetry.Registry) {
	t.Helper()
	store := storage.NewStore()
	cfg := DefaultConfig()
	cfg.CaptureParseErrors = true
	p := New(newTestEngine(t), store, cfg)
	reg := telemetry.NewRegistry()
	p.EnableMetrics(reg)
	return p, store, reg
}

func TestSubmitCapturesParseErrorAsRawRecord(t *testing.T) {
	p, store, _ := newCapturingProfiler(t)
	out, err := p.Submit(Submission{
		User: "alice", Group: "limnology", Visibility: storage.VisibilityGroup,
		SQL: "VACUUM ANALYZE WaterTemp",
	})
	if err != nil {
		t.Fatalf("Submit with CaptureParseErrors: %v", err)
	}
	if out.ExecError == nil {
		t.Error("outcome should carry the parse error")
	}
	if store.Count() != 1 {
		t.Fatalf("store count = %d, want 1 raw record", store.Count())
	}
	rec, err := store.Get(out.QueryID, storage.Principal{User: "alice"})
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if rec.Text != "VACUUM ANALYZE WaterTemp" {
		t.Errorf("raw text = %q", rec.Text)
	}
	if rec.Valid {
		t.Error("raw record stored as valid")
	}
	if rec.InvalidReason == "" {
		t.Error("raw record has no invalid reason")
	}
	if rec.Stats.Error == "" {
		t.Error("raw record has no runtime error recorded")
	}
	if rec.User != "alice" || rec.Group != "limnology" {
		t.Errorf("principal = %s/%s", rec.User, rec.Group)
	}
	found := false
	for _, f := range rec.Features {
		if f == storage.FeatureParseError {
			found = true
		}
	}
	if !found {
		t.Errorf("features = %v, want %s class", rec.Features, storage.FeatureParseError)
	}
	if rec.Fingerprint == 0 || rec.Template == "" || rec.Canonical == "" {
		t.Errorf("raw record missing parse-free canonicalisation: %+v", rec)
	}
}

func TestSubmitBatchMixedParseErrors(t *testing.T) {
	p, store, _ := newCapturingProfiler(t)
	outs, errs := p.SubmitBatch([]Submission{
		{User: "u", SQL: "SELECT temp FROM WaterTemp"},
		{User: "u", SQL: "SET search_path TO public"},
		{User: "u", SQL: "SELECT lake FROM WaterSalinity"},
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("errs[%d] = %v, want nil (raw capture on)", i, err)
		}
	}
	if store.Count() != 3 {
		t.Fatalf("store count = %d, want 3", store.Count())
	}
	for i, out := range outs {
		if out == nil || out.QueryID == 0 {
			t.Fatalf("outs[%d] = %+v, want a logged outcome", i, out)
		}
	}
	rec, _ := store.Get(outs[1].QueryID, storage.Principal{User: "u"})
	if rec.Valid || rec.Text != "SET search_path TO public" {
		t.Errorf("raw batch record = %+v", rec)
	}
	// Parsable neighbours are unaffected.
	for _, i := range []int{0, 2} {
		rec, _ := store.Get(outs[i].QueryID, storage.Principal{User: "u"})
		if !rec.Valid {
			t.Errorf("parsable record %d marked invalid", i)
		}
	}
}

func TestParseErrorCounters(t *testing.T) {
	p, _, reg := newCapturingProfiler(t)
	if _, err := p.Submit(Submission{User: "u", SQL: "VACUUM"}); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, reg, "cqms_profiler_parse_errors_total", "outcome", "captured"); got != 1 {
		t.Errorf("captured counter = %d, want 1", got)
	}

	// With capture off, the same submission is rejected and counted as such.
	store := storage.NewStore()
	rej := New(newTestEngine(t), store, DefaultConfig())
	rej.EnableMetrics(reg)
	if _, err := rej.Submit(Submission{User: "u", SQL: "VACUUM"}); err == nil {
		t.Fatal("expected rejection with CaptureParseErrors off")
	}
	if store.Count() != 0 {
		t.Error("rejected submission was logged")
	}
	if got := counterValue(t, reg, "cqms_profiler_parse_errors_total", "outcome", "rejected"); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

// TestEngineStageHistograms: every statement that ran is observed once, with
// the elapsed time and cardinality the record logs; one that failed to parse
// or to execute is not.
func TestEngineStageHistograms(t *testing.T) {
	p, store, reg := newCapturingProfiler(t)
	out, err := p.Submit(Submission{User: "u", SQL: "SELECT lake FROM WaterTemp"})
	if err != nil || out.ExecError != nil {
		t.Fatalf("Submit: %v / %v", err, out.ExecError)
	}
	for _, sql := range []string{"VACUUM", "SELECT nosuch FROM WaterTemp"} {
		if _, err := p.Submit(Submission{User: "u", SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := store.Get(out.QueryID, storage.Principal{User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	seconds := reg.Histogram("cqms_engine_execute_seconds", "", nil)
	rows := reg.Histogram("cqms_engine_result_rows", "", nil)
	if seconds.Count() != 1 || seconds.Sum() != rec.Stats.ExecTime {
		t.Errorf("execute histogram: %d observations summing to %v, want 1 of %v", seconds.Count(), seconds.Sum(), rec.Stats.ExecTime)
	}
	if rows.Count() != 1 || int(rows.Sum()/time.Second) != rec.Stats.ResultRows || rec.Stats.ResultRows == 0 {
		t.Errorf("rows histogram: %d observations summing to %v, want 1 of %d", rows.Count(), rows.Sum(), rec.Stats.ResultRows)
	}
}

// counterValue reads one labelled counter back through the registry.
func counterValue(t *testing.T, reg *telemetry.Registry, name, label, value string) uint64 {
	t.Helper()
	return reg.CounterVec(name, "", label).With(value).Value()
}
