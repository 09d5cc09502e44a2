package pgwire

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/telemetry"
)

// Config configures a Proxy.
type Config struct {
	// Backend is the address of the real Postgres-protocol server the proxy
	// forwards to.
	Backend string
	// DialTimeout bounds the backend dial. Default 5s.
	DialTimeout time.Duration
	// Capture tunes the async capture queue.
	Capture CaptureConfig
	// Metrics receives the cqms_proxy_* families; nil creates a private
	// registry so instrumentation is always on.
	Metrics *telemetry.Registry
}

// Proxy is a PostgreSQL wire-protocol man-in-the-middle: it accepts frontend
// connections, performs the startup phase (rejecting SSL/GSS encryption
// probes with 'N' so the session proceeds in cleartext against the proxy,
// and passing authentication through to the backend), then splices bytes in
// both directions while decoding the client-side stream for capture.
type Proxy struct {
	cfg     Config
	capture *AsyncCapture
	metrics *Metrics
	reg     *telemetry.Registry
	start   time.Time

	active sync.WaitGroup // live connection handlers
	conns  atomic.Int64   // active connection count for Status
}

// NewProxy returns a proxy capturing into sink. A nil sink disables capture
// entirely (the proxy becomes a pure splice — used by the overhead
// benchmark's baseline).
func NewProxy(sink Sink, cfg Config) *Proxy {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	p := &Proxy{
		cfg:     cfg,
		metrics: NewMetrics(reg),
		reg:     reg,
		start:   time.Now(),
	}
	if sink != nil {
		p.capture = NewAsyncCapture(sink, cfg.Capture, p.metrics)
	}
	return p
}

// Serve accepts connections from ln until the context is cancelled or the
// listener fails. It blocks; cancel the context (or close the listener) to
// stop. Live sessions are allowed to finish draining when the listener
// closes; Close flushes the capture pipeline.
func (p *Proxy) Serve(ctx context.Context, ln net.Listener) error {
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		p.metrics.ConnectionsTotal.Inc()
		p.metrics.ConnectionsActive.Inc()
		p.conns.Add(1)
		p.active.Add(1)
		go func() {
			defer func() {
				p.metrics.ConnectionsActive.Dec()
				p.conns.Add(-1)
				p.active.Done()
			}()
			p.handleConn(ctx, conn)
		}()
	}
}

// Close waits for in-flight connection handlers to return and flushes the
// capture queue into the sink. Call after Serve has returned.
func (p *Proxy) Close() {
	p.active.Wait()
	if p.capture != nil {
		p.capture.Close()
	}
}

// handleConn runs one proxied session end to end.
func (p *Proxy) handleConn(ctx context.Context, client net.Conn) {
	defer client.Close()
	clientR := bufio.NewReader(client)

	// Startup phase: answer encryption probes with 'N' (the protocol allows
	// the client to continue in cleartext or disconnect), then expect a
	// regular startup or a cancel request.
	var startup *StartupMessage
	for {
		msg, err := ReadStartup(clientR)
		if err != nil {
			p.metrics.HandshakeErrors.Inc()
			return
		}
		if msg.IsSSLRequest() || msg.IsGSSEncRequest() {
			if _, err := client.Write([]byte{'N'}); err != nil {
				p.metrics.HandshakeErrors.Inc()
				return
			}
			continue
		}
		startup = msg
		break
	}

	backend, err := net.DialTimeout("tcp", p.cfg.Backend, p.cfg.DialTimeout)
	if err != nil {
		p.metrics.DialErrors.Inc()
		// 08001 = sqlclient_unable_to_establish_sqlconnection.
		client.Write(errorResponse("FATAL", "08001",
			fmt.Sprintf("cqms-proxy: cannot reach backend %s", p.cfg.Backend)))
		return
	}
	defer backend.Close()

	// Forward the startup packet (or cancel request) verbatim.
	if _, err := backend.Write(startup.Raw); err != nil {
		return
	}
	if startup.IsCancelRequest() {
		// A cancel connection carries no further frontend traffic; relay
		// whatever the backend sends (normally: nothing, then EOF).
		io.Copy(client, backend)
		return
	}

	// From here the connection is a live session: authentication exchanges,
	// queries and results all flow through the two splice loops below. The
	// client→backend loop decodes messages for capture; the backend→client
	// loop is a plain byte relay.
	var trk *tracker
	if p.capture != nil {
		trk = newTracker(startup.User(), startup.Database(), time.Now)
	}

	// Cancellation breaks both reads; otherwise teardown is driven by TCP
	// half-close so no in-flight response bytes are ever cut off: when one
	// side's stream ends, the write side towards the other peer is closed,
	// the peer sees EOF, answers what it already read, and closes — at which
	// point the opposite relay ends naturally.
	stopWatch := context.AfterFunc(ctx, func() {
		client.SetDeadline(time.Now())
		backend.SetDeadline(time.Now())
	})
	defer stopWatch()

	relayDone := make(chan struct{})
	go func() {
		defer close(relayDone)
		// Count incrementally so Status reflects live sessions, not just
		// finished ones.
		io.Copy(&countingWriter{w: client, count: p.metrics.BytesBackend}, backend)
		closeWrite(client)
	}()
	p.spliceFrontend(clientR, backend, trk)
	closeWrite(backend)
	<-relayDone
}

// closeWrite half-closes a TCP connection (signals EOF to the peer while the
// read side keeps draining).
func closeWrite(c net.Conn) {
	if cw, ok := c.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	}
}

// countingWriter adds every written byte to a counter.
type countingWriter struct {
	w     io.Writer
	count *telemetry.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.count.Add(uint64(n))
	return n, err
}

// spliceFrontend relays the client's message stream to the backend while
// decoding it for capture. Forwarding is byte-identical: each message is
// re-framed with exactly the header that was read.
func (p *Proxy) spliceFrontend(from io.Reader, to io.Writer, trk *tracker) {
	bw := bufio.NewWriter(to)
	for {
		msg, err := ReadMessage(from)
		if err != nil {
			bw.Flush()
			return
		}
		p.metrics.countMessage(msg.Type)
		n, err := msg.WriteTo(bw)
		p.metrics.BytesFrontend.Add(uint64(n))
		if err != nil {
			return
		}
		// Queries expect a response; flush before the backend can answer.
		// (Batched extended-protocol messages flush on Sync/Flush or any
		// other non-buffered type too — simpler than tracking pipelining,
		// and a flush per message is still cheap against a socket.)
		if err := bw.Flush(); err != nil {
			return
		}
		if trk != nil {
			for _, captured := range trk.observe(msg) {
				p.capture.Enqueue(captured)
			}
		}
		if msg.Type == typeTerminate {
			return
		}
	}
}

// Status returns the current counters: the document the admin endpoint
// serves.
func (p *Proxy) Status() client.ProxyStatus {
	return client.ProxyStatus{
		Role:               "proxy",
		UptimeSeconds:      time.Since(p.start).Seconds(),
		Backend:            p.cfg.Backend,
		ActiveConnections:  p.conns.Load(),
		TotalConnections:   p.metrics.ConnectionsTotal.Value(),
		StatementsCaptured: p.metrics.StatementsCaptured.Value(),
		StatementsDropped:  p.metrics.StatementsDropped.Value(),
		SubmitErrors:       p.metrics.SubmitErrors.Value(),
		BackendDialErrors:  p.metrics.DialErrors.Value(),
		BytesFromClients:   p.metrics.BytesFrontend.Value(),
		BytesFromBackend:   p.metrics.BytesBackend.Value(),
		CaptureEnabled:     p.capture != nil,
	}
}
