package pgwire

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// collectSink records everything submitted to it.
type collectSink struct {
	mu      sync.Mutex
	batches [][]Captured
}

func (s *collectSink) SubmitBatch(_ context.Context, stmts []Captured) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches = append(s.batches, append([]Captured(nil), stmts...))
	return nil
}

func (s *collectSink) total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.batches {
		n += len(b)
	}
	return n
}

func TestAsyncCaptureDeliversAndBatches(t *testing.T) {
	sink := &collectSink{}
	ac := NewAsyncCapture(sink, CaptureConfig{Queue: 64, Batch: 8, FlushEvery: 10 * time.Millisecond}, NewMetrics(telemetry.NewRegistry()))
	for i := 0; i < 20; i++ {
		if !ac.Enqueue(Captured{SQL: "SELECT 1", User: "u"}) {
			t.Fatalf("Enqueue %d dropped with an empty queue", i)
		}
	}
	ac.Close()
	if got := sink.total(); got != 20 {
		t.Errorf("sink received %d statements, want 20", got)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, b := range sink.batches {
		if len(b) > 8 {
			t.Errorf("batch of %d exceeds configured Batch 8", len(b))
		}
	}
}

func TestAsyncCaptureDropsWhenFullWithoutBlocking(t *testing.T) {
	release := make(chan struct{})
	delivered := make(chan struct{}, 128)
	blocked := sinkFunc(func(context.Context, []Captured) error {
		delivered <- struct{}{}
		<-release // stall the sink: the queue can only drain once released
		return nil
	})
	metrics := NewMetrics(telemetry.NewRegistry())
	ac := NewAsyncCapture(blocked, CaptureConfig{Queue: 2, Batch: 1, FlushEvery: time.Hour}, metrics)
	defer func() {
		close(release)
		ac.Close()
	}()

	// First statement reaches the sink and stalls it there.
	ac.Enqueue(Captured{SQL: "SELECT 0"})
	<-delivered

	// Fill the queue, then keep enqueuing: every extra must return false
	// immediately rather than block the caller.
	dropped := 0
	start := time.Now()
	for i := 0; i < 100; i++ {
		if !ac.Enqueue(Captured{SQL: "SELECT 1"}) {
			dropped++
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("100 enqueues against a stalled sink took %v — Enqueue blocked", elapsed)
	}
	if dropped < 98 {
		t.Errorf("dropped %d of 100, want >= 98 (queue holds 2)", dropped)
	}
	if got := metrics.StatementsDropped.Value(); got != uint64(dropped) {
		t.Errorf("cqms_proxy_statements_dropped_total = %d, want %d", got, dropped)
	}
}

func TestAsyncCaptureEnqueueAfterClose(t *testing.T) {
	ac := NewAsyncCapture(&collectSink{}, CaptureConfig{}, NewMetrics(telemetry.NewRegistry()))
	ac.Close()
	if ac.Enqueue(Captured{SQL: "SELECT 1"}) {
		t.Error("Enqueue after Close returned true")
	}
}

func TestCoreSinkMapsPrincipal(t *testing.T) {
	// Covered end to end in proxy_test.go; here just the default mapper shape.
	id := DefaultPrincipalMapper("alice", "limnology")
	if id.User != "alice" || id.Group != "limnology" {
		t.Errorf("DefaultPrincipalMapper = %+v", id)
	}
}

// captureRemote drains stmts, as one sink batch, through an AsyncCapture
// over a ClientSink in front of a real server and an in-memory CQMS. It
// returns how many statements that CQMS logged and the capture's metrics.
func captureRemote(t *testing.T, stmts []Captured) (int, *Metrics) {
	t.Helper()
	cqms := openTestCQMS(t)
	ts := httptest.NewServer(server.New(cqms).Handler())
	t.Cleanup(ts.Close)
	metrics := NewMetrics(telemetry.NewRegistry())
	ac := NewAsyncCapture(NewClientSink(client.New(ts.URL), nil), CaptureConfig{Queue: len(stmts), Batch: len(stmts), FlushEvery: time.Hour}, metrics)
	for _, st := range stmts {
		if !ac.Enqueue(st) {
			t.Fatal("Enqueue refused a statement")
		}
	}
	ac.Close()
	if got := metrics.SubmitErrors.Value(); got != 0 {
		t.Errorf("cqms_proxy_submit_errors_total = %d, want 0", got)
	}
	return cqms.Store().Count(), metrics
}

// captured returns n statements of about size bytes each, all distinct.
func captured(n, size int) []Captured {
	out := make([]Captured, n)
	for i := range out {
		sql := fmt.Sprintf("SELECT lake FROM WaterTemp WHERE lake = '%d", i)
		out[i] = Captured{User: "alice", Database: "limnology", SQL: sql + strings.Repeat("x", size-len(sql)-1) + "'"}
	}
	return out
}

// TestClientSinkSplitsByBodySize: a sink batch whose statements together
// exceed the server's batch body cap is sent in requests the server
// accepts, so every statement is logged.
func TestClientSinkSplitsByBodySize(t *testing.T) {
	stmts := captured(300, 30<<10)
	logged, metrics := captureRemote(t, stmts)
	if logged != len(stmts) {
		t.Errorf("logged %d of %d statements", logged, len(stmts))
	}
	if got := metrics.StatementsDropped.Value(); got != 0 {
		t.Errorf("dropped %d statements, want 0", got)
	}
}

// TestClientSinkDropsAStatementTooLargeAlone: a statement whose request
// alone would exceed the cap is dropped and counted in the capture's
// cqms_proxy_statements_dropped_total; the statements batched with it are
// logged.
func TestClientSinkDropsAStatementTooLargeAlone(t *testing.T) {
	stmts := captured(10, 100)
	huge := captured(1, server.MaxBatchBodyBytes)[0]
	stmts = append(stmts[:5:5], append([]Captured{huge}, stmts[5:]...)...)
	logged, metrics := captureRemote(t, stmts)
	if logged != 10 {
		t.Errorf("logged %d statements, want the 10 around the dropped one", logged)
	}
	if got := metrics.StatementsDropped.Value(); got != 1 {
		t.Errorf("dropped %d statements, want 1", got)
	}
}

// TestClientSinkRequestsFillTheCap: the split is exact. A request that holds
// exactly MaxBatchBodyBytes of body goes out whole, and one byte more starts
// a second request.
func TestClientSinkRequestsFillTheCap(t *testing.T) {
	sink := NewClientSink(nil, nil)
	query := func(n int) server.SubmitParams { return server.SubmitParams{SQL: strings.Repeat("s", n)} }
	one, _ := json.Marshal(server.BatchSubmitRequest{Queries: []server.SubmitParams{query(0), query(0)}})
	// Two queries whose body is exactly the cap.
	fill := (server.MaxBatchBodyBytes - len(one)) / 2
	for _, c := range []struct {
		extra, want int
	}{{0, 1}, {1, 2}} {
		qs := []server.SubmitParams{query(fill), query(fill + server.MaxBatchBodyBytes - len(one) - 2*fill + c.extra)}
		body, _ := json.Marshal(server.BatchSubmitRequest{Queries: qs})
		if got := len(sink.requests(qs)); got != c.want {
			t.Errorf("a %d-byte body (cap %d) went out in %d requests, want %d", len(body), server.MaxBatchBodyBytes, got, c.want)
		}
	}
}
