package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded only
// from this package's files — a RoundTripper under the client, a handler
// around server.Handler(), and direct timed calls into core and its
// components — so a wiring change inside the program is measured, not
// mirrored. The spans of one request share the client span's ID as their
// ancestor.
type span struct {
	Workload string `json:"workload"`
	Op       string `json:"op"`
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// Bytes is the response size, on server spans.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	workload string
	epoch    time.Time
	nextID   atomic.Int64
	// on gates the HTTP-level spans: the wrappers stay installed for the
	// whole traced run and pass through while it is false, so the untraced
	// phase pays one atomic load per request.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	// inflight maps a client span ID to its op name while the request is on
	// the wire, so the server-side wrapper can name its span without the
	// program forwarding anything but the standard request ID.
	inflight map[int64]string
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), inflight: map[int64]string{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	s.Workload = t.workload
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn as a root span at the given layer and returns its duration.
func (t *tracer) timed(layer, name string, fn func()) time.Duration {
	start := t.now()
	fn()
	end := t.now()
	t.add(span{Op: name, ID: t.nextID.Add(1), Layer: layer, Name: name, StartNs: start, EndNs: end})
	return time.Duration(end - start)
}

// opTrace rides in a request's context: it tells the RoundTripper which
// generated op a wire request belongs to, and counts the requests of that op
// (a followed search issues two).
type opTrace struct {
	kind     opKind
	requests int
}

type opTraceKey struct{}

func withOpTrace(ctx context.Context, ot *opTrace) context.Context {
	return context.WithValue(ctx, opTraceKey{}, ot)
}

// tracingTransport records one client span per HTTP request, from RoundTrip
// to the close of the response body — the interval the caller of
// internal/client actually waits.
type tracingTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.on.Load() {
		return tt.base.RoundTrip(req)
	}
	name := "other"
	if ot, ok := req.Context().Value(opTraceKey{}).(*opTrace); ok {
		name = ot.kind.String()
		if ot.kind == opKeyword && ot.requests > 0 {
			name = opPage2.String()
		}
		ot.requests++
	}
	id := tt.t.nextID.Add(1)
	tt.t.mu.Lock()
	tt.t.inflight[id] = name
	tt.t.mu.Unlock()
	req = req.Clone(req.Context())
	req.Header.Set("X-Request-Id", strconv.FormatInt(id, 10))
	start := tt.t.now()
	finish := func() {
		end := tt.t.now()
		tt.t.mu.Lock()
		delete(tt.t.inflight, id)
		tt.t.mu.Unlock()
		tt.t.add(span{Op: name, ID: id, Layer: "client", Name: "roundtrip", StartNs: start, EndNs: end})
	}
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		finish()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, finish: finish}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once   sync.Once
	finish func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.finish)
	return err
}

// tracingHandler records one server span per request around the program's
// whole handler (middleware chain included) and counts response bytes.
func tracingHandler(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get("X-Request-Id"), 10, 64)
		t.mu.Lock()
		name, ok := t.inflight[parent]
		t.mu.Unlock()
		if !ok {
			name = "other"
		}
		cw := &countingWriter{ResponseWriter: w}
		start := t.now()
		next.ServeHTTP(cw, r)
		end := t.now()
		t.add(span{Op: name, ID: t.nextID.Add(1), Parent: parent, Layer: "server", Name: "handler",
			StartNs: start, EndNs: end, Bytes: cw.n})
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// Flush keeps the replication stream's flushes working through the wrapper.
func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its direct children cover. Overlapping children are merged
// first, and a child is clipped to its parent, so concurrency under a span
// is never subtracted twice and self time is never negative.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]*span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		var covered, reach int64
		reach = s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// writeJSONL writes the spans, one JSON object per line, and returns how
// many there were.
func (t *tracer) writeJSONL(path string) (int, error) {
	spans := t.snapshot()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(spans), f.Close()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
