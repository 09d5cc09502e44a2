package pgwire

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/profiler"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Identity is the CQMS principal a captured statement is logged under.
type Identity struct {
	User       string
	Group      string
	Visibility storage.Visibility
}

// PrincipalMapper maps a proxied session's startup user/database onto a CQMS
// identity. It runs once per captured statement on the capture (not the
// splice) path.
type PrincipalMapper func(user, database string) Identity

// DefaultPrincipalMapper logs statements under the session's startup user,
// with the database as the collaboration group and group visibility — the
// paper's setting where a shared scientific database maps to a collaborating
// group.
func DefaultPrincipalMapper(user, database string) Identity {
	return Identity{User: user, Group: database, Visibility: storage.VisibilityGroup}
}

// Sink receives batches of captured statements. Implementations submit them
// through the CQMS batch path; they may block, because the proxy always calls
// them from the async capture goroutine, never from a splice loop.
type Sink interface {
	SubmitBatch(ctx context.Context, stmts []Captured) error
}

// ---------------------------------------------------------------------------
// Embedded sink: capture straight into a core.CQMS
// ---------------------------------------------------------------------------

// CoreSink submits captured statements into an embedded CQMS through
// core.SubmitBatch: one commit-lock acquisition per batch, canonicalisation
// and fingerprinting via internal/sql, parse failures falling back to raw
// capture when the profiler's CaptureParseErrors is on.
type CoreSink struct {
	CQMS *core.CQMS
	// Map defaults to DefaultPrincipalMapper.
	Map PrincipalMapper
}

// SubmitBatch implements Sink.
func (s *CoreSink) SubmitBatch(ctx context.Context, stmts []Captured) error {
	mapper := s.Map
	if mapper == nil {
		mapper = DefaultPrincipalMapper
	}
	subs := make([]profiler.Submission, len(stmts))
	for i, st := range stmts {
		id := mapper(st.User, st.Database)
		subs[i] = profiler.Submission{
			User:       id.User,
			Group:      id.Group,
			Visibility: id.Visibility,
			SQL:        st.SQL,
			IssuedAt:   st.At,
		}
	}
	_, _, err := s.CQMS.SubmitBatch(ctx, subs)
	return err
}

// ---------------------------------------------------------------------------
// Remote sink: capture into a running cqms-server over the v1 API
// ---------------------------------------------------------------------------

// ClientSink submits captured statements to a remote cqms-server through
// POST /v1/queries:batch. The principal travels in headers, so statements are
// grouped by mapped identity and submitted with per-identity derived clients
// that all share the base client's HTTP transport (one connection pool).
type ClientSink struct {
	Base *client.Client
	// Map defaults to DefaultPrincipalMapper.
	Map PrincipalMapper

	// dropped counts statements too large for a request of their own; the
	// AsyncCapture draining into the sink sets it to its
	// cqms_proxy_statements_dropped_total.
	dropped *telemetry.Counter
	mu      sync.Mutex
	derived map[Identity]*client.Client
}

// NewClientSink returns a remote sink over the given base client.
func NewClientSink(base *client.Client, mapper PrincipalMapper) *ClientSink {
	return &ClientSink{Base: base, Map: mapper, derived: map[Identity]*client.Client{}}
}

// clientFor returns (creating on first use) the derived client acting as id.
func (s *ClientSink) clientFor(id Identity) *client.Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.derived[id]; ok {
		return c
	}
	c := s.Base.As(id.User, id.Group)
	s.derived[id] = c
	return c
}

// SubmitBatch implements Sink. Each identity's statements go out in
// requests the server accepts whole (requests); the first failed request's
// error is returned after the rest were sent.
func (s *ClientSink) SubmitBatch(ctx context.Context, stmts []Captured) error {
	mapper := s.Map
	if mapper == nil {
		mapper = DefaultPrincipalMapper
	}
	// Group by identity, preserving capture order within each identity.
	var order []Identity
	buckets := map[Identity][]server.SubmitParams{}
	for _, st := range stmts {
		id := mapper(st.User, st.Database)
		if _, ok := buckets[id]; !ok {
			order = append(order, id)
		}
		buckets[id] = append(buckets[id], server.SubmitParams{
			SQL: st.SQL, Group: id.Group, Visibility: id.Visibility.String(),
		})
	}
	var firstErr error
	for _, id := range order {
		c := s.clientFor(id)
		for _, req := range s.requests(buckets[id]) {
			if _, err := c.SubmitBatch(ctx, req); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("pgwire: remote submit as %s: %w", id.User, err)
			}
		}
	}
	return firstErr
}

// requests splits queries, in order, into batch requests of at most
// server.MaxBatchQueries queries and server.MaxBatchBodyBytes of encoded
// body, the client's encoding measured query by query. A query that does
// not fit in a request of its own is dropped and counted; the queries
// around it are still sent.
func (s *ClientSink) requests(queries []server.SubmitParams) [][]server.SubmitParams {
	const envelope = len(`{"queries":[]}`)
	var out [][]server.SubmitParams
	var cur []server.SubmitParams
	size := envelope
	for _, q := range queries {
		b, err := json.Marshal(q)
		if err != nil || envelope+len(b) > server.MaxBatchBodyBytes {
			s.dropped.Inc()
			continue
		}
		if len(cur) > 0 && (len(cur) == server.MaxBatchQueries || size+1+len(b) > server.MaxBatchBodyBytes) {
			out = append(out, cur)
			cur, size = nil, envelope
		}
		if len(cur) > 0 {
			size++ // the comma before it
		}
		cur = append(cur, q)
		size += len(b)
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// ---------------------------------------------------------------------------
// Async capture: the bounded queue between splice loops and the sink
// ---------------------------------------------------------------------------

// CaptureConfig tunes the async capture pipeline.
type CaptureConfig struct {
	// Queue is the bounded capture queue length. When the queue is full,
	// newly observed statements are dropped and counted — the proxied
	// session is never delayed. Default 4096.
	Queue int
	// Batch is the largest sink batch. Default 256.
	Batch int
	// FlushEvery bounds how long a captured statement waits before a partial
	// batch is flushed. Default 100ms.
	FlushEvery time.Duration
}

// withDefaults fills zero fields.
func (c CaptureConfig) withDefaults() CaptureConfig {
	if c.Queue <= 0 {
		c.Queue = 4096
	}
	if c.Batch <= 0 {
		c.Batch = 256
	}
	if c.Batch > c.Queue {
		c.Batch = c.Queue
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 100 * time.Millisecond
	}
	return c
}

// AsyncCapture decouples statement capture from the proxied sessions: splice
// loops enqueue without ever blocking (drop-with-counter backpressure), one
// background goroutine drains the queue into the sink in batches.
type AsyncCapture struct {
	cfg     CaptureConfig
	sink    Sink
	metrics *Metrics
	ch      chan Captured
	done    chan struct{}

	closeOnce sync.Once
	closed    chan struct{}
}

// NewAsyncCapture starts the capture pipeline over the given sink. The
// metrics argument must not be nil (Proxy always passes its own). A
// ClientSink's statements too large for a request are counted in its
// StatementsDropped, with those the full queue drops.
func NewAsyncCapture(sink Sink, cfg CaptureConfig, metrics *Metrics) *AsyncCapture {
	if cs, ok := sink.(*ClientSink); ok {
		cs.dropped = metrics.StatementsDropped
	}
	a := &AsyncCapture{
		cfg:     cfg.withDefaults(),
		sink:    sink,
		metrics: metrics,
		done:    make(chan struct{}),
		closed:  make(chan struct{}),
	}
	a.ch = make(chan Captured, a.cfg.Queue)
	go a.run()
	return a
}

// Enqueue offers one captured statement to the pipeline. It never blocks:
// when the queue is full the statement is dropped and counted in
// cqms_proxy_statements_dropped_total, returning false.
func (a *AsyncCapture) Enqueue(st Captured) bool {
	select {
	case <-a.closed:
		a.metrics.StatementsDropped.Inc()
		return false
	default:
	}
	select {
	case a.ch <- st:
		a.metrics.StatementsCaptured.Inc()
		return true
	default:
		a.metrics.StatementsDropped.Inc()
		return false
	}
}

// Close stops accepting statements, flushes what is already queued and waits
// for the drain goroutine to finish.
func (a *AsyncCapture) Close() {
	a.closeOnce.Do(func() {
		close(a.closed)
		close(a.ch)
	})
	<-a.done
}

// run drains the queue: a batch is flushed when it reaches cfg.Batch or when
// cfg.FlushEvery elapses with statements pending.
func (a *AsyncCapture) run() {
	defer close(a.done)
	ticker := time.NewTicker(a.cfg.FlushEvery)
	defer ticker.Stop()
	batch := make([]Captured, 0, a.cfg.Batch)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		start := time.Now()
		err := a.sink.SubmitBatch(context.Background(), batch)
		a.metrics.SubmitLatency.Observe(time.Since(start))
		if err != nil {
			a.metrics.SubmitErrors.Inc()
		}
		batch = batch[:0]
	}
	for {
		select {
		case st, ok := <-a.ch:
			if !ok {
				flush()
				return
			}
			batch = append(batch, st)
			if len(batch) >= a.cfg.Batch {
				flush()
			}
		case <-ticker.C:
			flush()
		}
	}
}
