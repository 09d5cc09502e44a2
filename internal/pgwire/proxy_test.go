package pgwire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/storage"
)

// sinkFunc adapts a function to the Sink interface.
type sinkFunc func(ctx context.Context, stmts []Captured) error

func (f sinkFunc) SubmitBatch(ctx context.Context, stmts []Captured) error { return f(ctx, stmts) }

// prepareExec runs one extended-protocol round trip on f: Parse (under the
// given statement name), Bind to the unnamed portal, Execute, Sync — then
// consumes through ReadyForQuery. An empty name uses the unnamed statement. Passing
// parse=false skips the Parse message, re-executing a statement prepared
// earlier (how drivers reuse named statements).
func prepareExec(f *FrontendConn, name, sql string, parse bool) error {
	if parse {
		var p []byte
		p = append(p, name...)
		p = append(p, 0)
		p = append(p, sql...)
		p = append(p, 0)
		p = binary.BigEndian.AppendUint16(p, 0) // no parameter type OIDs
		if _, err := (Message{Type: typeParse, Payload: p}).WriteTo(f.w); err != nil {
			return err
		}
	}
	var b []byte
	b = append(b, 0) // unnamed portal
	b = append(b, name...)
	b = append(b, 0)
	b = binary.BigEndian.AppendUint16(b, 0) // no format codes
	b = binary.BigEndian.AppendUint16(b, 0) // no parameters
	b = binary.BigEndian.AppendUint16(b, 0) // no result format codes
	if _, err := (Message{Type: typeBind, Payload: b}).WriteTo(f.w); err != nil {
		return err
	}
	var e []byte
	e = append(e, 0)                        // unnamed portal
	e = binary.BigEndian.AppendUint32(e, 0) // no row limit
	if _, err := (Message{Type: typeExecute, Payload: e}).WriteTo(f.w); err != nil {
		return err
	}
	if _, err := (Message{Type: typeSync, Payload: nil}).WriteTo(f.w); err != nil {
		return err
	}
	if err := f.w.Flush(); err != nil {
		return err
	}
	return f.waitReady()
}

// startProxy runs a proxy over an ephemeral listener; cleanup stops the
// accept loop and drains the capture pipeline.
func startProxy(t *testing.T, sink Sink, cfg Config) (addr string, p *Proxy) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	p = NewProxy(sink, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = p.Serve(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		p.Close()
	})
	return ln.Addr().String(), p
}

// openTestCQMS returns an in-memory CQMS with parse-error capture on, as
// cqms-proxy's embedded mode configures it.
func openTestCQMS(t *testing.T) *core.CQMS {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Profiler.CaptureParseErrors = true
	cqms, err := core.Open(cfg)
	if err != nil {
		t.Fatalf("opening CQMS: %v", err)
	}
	t.Cleanup(func() { cqms.Close() })
	return cqms
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestProxyEndToEndCapture drives a psql-like client through the proxy to a
// fake backend and asserts every statement — simple, multi-statement and
// extended-protocol — lands in the store via the batch path with the right
// principal.
func TestProxyEndToEndCapture(t *testing.T) {
	backend, err := NewFakeBackend("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()

	cqms := openTestCQMS(t)
	sink := &CoreSink{CQMS: cqms}
	addr, proxy := startProxy(t, sink, Config{
		Backend: backend.Addr(),
		Capture: CaptureConfig{FlushEvery: 5 * time.Millisecond},
	})

	fe, err := DialFrontend(addr, "alice", "limnology")
	if err != nil {
		t.Fatalf("dial through proxy: %v", err)
	}
	defer fe.Close()

	if err := fe.SimpleQuery("SELECT lake FROM WaterTemp WHERE temp > 5"); err != nil {
		t.Fatalf("simple query: %v", err)
	}
	// One Query message, two statements: both must be captured.
	if err := fe.SimpleQuery("SELECT depth FROM WaterTemp; SELECT sensor FROM SensorLog"); err != nil {
		t.Fatalf("multi-statement query: %v", err)
	}
	// Extended protocol: named statement prepared once, executed twice.
	if err := prepareExec(fe, "bydepth", "SELECT temp FROM WaterTemp WHERE depth = 10", true); err != nil {
		t.Fatalf("prepare/exec: %v", err)
	}
	if err := prepareExec(fe, "bydepth", "", false); err != nil {
		t.Fatalf("re-exec of named statement: %v", err)
	}
	// Unparsable by the internal SQL subset: raw capture, not silence.
	if err := fe.SimpleQuery("VACUUM ANALYZE WaterTemp"); err != nil {
		t.Fatalf("unparsable statement: %v", err)
	}

	const want = 6 // 1 + 2 + 2 + 1
	waitFor(t, "statements to reach the store", func() bool {
		return cqms.Store().Count() >= want
	})
	if got := cqms.Store().Count(); got != want {
		t.Errorf("store holds %d queries, want %d", got, want)
	}

	admin := storage.Principal{Admin: true}
	recs := cqms.Store().Snapshot().Records(admin)
	byText := map[string]*storage.QueryRecord{}
	for _, r := range recs {
		byText[r.Text] = r
		if r.User != "alice" {
			t.Errorf("record %q logged as user %q, want alice", r.Text, r.User)
		}
		if r.Group != "limnology" {
			t.Errorf("record %q logged under group %q, want limnology (database)", r.Text, r.Group)
		}
		if r.Visibility != storage.VisibilityGroup {
			t.Errorf("record %q visibility %v, want group", r.Text, r.Visibility)
		}
	}
	for _, text := range []string{
		"SELECT lake FROM WaterTemp WHERE temp > 5",
		"SELECT depth FROM WaterTemp",
		"SELECT sensor FROM SensorLog",
		"VACUUM ANALYZE WaterTemp",
	} {
		if byText[text] == nil {
			t.Errorf("statement %q not captured", text)
		}
	}
	if rec := byText["SELECT lake FROM WaterTemp WHERE temp > 5"]; rec != nil {
		if !rec.Valid || rec.Canonical == "" || rec.Fingerprint == 0 {
			t.Errorf("parsable statement stored without canonicalisation: %+v", rec)
		}
	}
	// The raw-captured statement is marked invalid with the parse_error class.
	if rec := byText["VACUUM ANALYZE WaterTemp"]; rec != nil {
		if rec.Valid {
			t.Error("unparsable statement stored as valid")
		}
		found := false
		for _, f := range rec.Features {
			if f == storage.FeatureParseError {
				found = true
			}
		}
		if !found {
			t.Errorf("raw record features = %v, want parse_error class", rec.Features)
		}
	}
	// Both executions of the named statement were captured with identical
	// fingerprints (same SQL text attributed per execution).
	execs := 0
	var fp uint64
	for _, r := range recs {
		if r.Text == "SELECT temp FROM WaterTemp WHERE depth = 10" {
			execs++
			if fp == 0 {
				fp = r.Fingerprint
			} else if r.Fingerprint != fp {
				t.Error("re-execution fingerprint differs")
			}
		}
	}
	if execs != 2 {
		t.Errorf("named statement captured %d times, want 2 (one per Execute)", execs)
	}

	if got := proxy.Status().StatementsCaptured; got != want {
		t.Errorf("cqms_proxy_statements_captured_total = %d, want %d", got, want)
	}
	if got := proxy.Status().StatementsDropped; got != 0 {
		t.Errorf("cqms_proxy_statements_dropped_total = %d, want 0", got)
	}
	if backend.Statements.Load() == 0 {
		t.Error("fake backend saw no statements — proxy did not forward")
	}
}

// scriptedSession writes a fixed byte script to addr and returns every byte
// the server sends back until EOF.
func scriptedSession(t *testing.T, addr string, script []byte) []byte {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(script); err != nil {
		t.Fatalf("write script: %v", err)
	}
	data, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("read responses: %v", err)
	}
	return data
}

// TestProxyByteIdenticalResponses replays the same session directly against
// the fake backend and through the proxy, and requires the response byte
// streams to be identical — the proxy must be invisible to the client.
func TestProxyByteIdenticalResponses(t *testing.T) {
	backend, err := NewFakeBackend("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	addr, _ := startProxy(t, &collectSink{}, Config{Backend: backend.Addr()})

	var script []byte
	script = append(script, buildStartup("user", "alice", "database", "limnology")...)
	appendMsg := func(m Message) {
		var buf bytes.Buffer
		m.WriteTo(&buf)
		script = append(script, buf.Bytes()...)
	}
	appendMsg(msg(typeQuery, "SELECT lake FROM WaterTemp; SELECT 2"))
	appendMsg(msg(typeParse, "s1", "SELECT temp FROM WaterTemp WHERE depth = $1", "\x00"))
	appendMsg(msg(typeBind, "", "s1"))
	appendMsg(Message{Type: typeDescribe, Payload: []byte{'P', 0}})
	appendMsg(Message{Type: typeExecute, Payload: append([]byte{0}, 0, 0, 0, 0)})
	appendMsg(Message{Type: typeSync})
	appendMsg(msg(typeQuery, ""))
	appendMsg(Message{Type: typeTerminate})

	direct := scriptedSession(t, backend.Addr(), script)
	proxied := scriptedSession(t, addr, script)
	if len(direct) == 0 {
		t.Fatal("direct session produced no response bytes")
	}
	if !bytes.Equal(direct, proxied) {
		t.Errorf("proxied response differs from direct response:\ndirect:  %x\nproxied: %x", direct, proxied)
	}
}

// TestProxyAnswersEncryptionProbes verifies the SSLRequest/GSSENCRequest
// handling: the proxy answers 'N' and the client can continue with a
// cleartext startup on the same connection (what psql does by default).
func TestProxyAnswersEncryptionProbes(t *testing.T) {
	backend, err := NewFakeBackend("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	addr, _ := startProxy(t, nil, Config{Backend: backend.Addr()})

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	for _, code := range []uint32{sslRequestCode, gssEncRequest} {
		probe := binary.BigEndian.AppendUint32(nil, 8)
		probe = binary.BigEndian.AppendUint32(probe, code)
		if _, err := conn.Write(probe); err != nil {
			t.Fatal(err)
		}
		var answer [1]byte
		if _, err := io.ReadFull(conn, answer[:]); err != nil {
			t.Fatalf("reading probe answer: %v", err)
		}
		if answer[0] != 'N' {
			t.Fatalf("probe answered %q, want 'N'", answer[0])
		}
	}

	// Cleartext startup proceeds on the same connection.
	if _, err := conn.Write(buildStartup("user", "alice")); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMessage(conn)
	if err != nil {
		t.Fatalf("reading greeting after probes: %v", err)
	}
	if m.Type != typeAuth {
		t.Errorf("first greeting message %c, want AuthenticationOk", m.Type)
	}
}

// TestProxyStalledSinkNeverDelaysSession is the backpressure acceptance test:
// with the sink wedged and a tiny queue, the proxied session keeps answering
// at full speed and the overflow is counted in
// cqms_proxy_statements_dropped_total.
func TestProxyStalledSinkNeverDelaysSession(t *testing.T) {
	backend, err := NewFakeBackend("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()

	release := make(chan struct{})
	defer close(release) // unwedge before cleanup so Close can drain
	stalled := sinkFunc(func(context.Context, []Captured) error {
		<-release
		return nil
	})
	addr, proxy := startProxy(t, stalled, Config{
		Backend: backend.Addr(),
		Capture: CaptureConfig{Queue: 1, Batch: 1, FlushEvery: time.Millisecond},
	})

	fe, err := DialFrontend(addr, "bob", "limnology")
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	const queries = 50
	start := time.Now()
	for i := 0; i < queries; i++ {
		if err := fe.SimpleQuery("SELECT sensor FROM SensorLog"); err != nil {
			t.Fatalf("query %d through stalled-sink proxy: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	// 50 local round trips take milliseconds; any sink-induced stall (the
	// sink never returns until the test ends) would push this far beyond.
	if elapsed > 5*time.Second {
		t.Errorf("%d queries took %v — capture backpressure leaked into the session", queries, elapsed)
	}

	// The proxy forwards a statement before it counts its capture, so the
	// client can read the last response before the counter moves.
	st := proxy.Status()
	for deadline := time.Now().Add(5 * time.Second); st.StatementsCaptured+st.StatementsDropped < queries && time.Now().Before(deadline); st = proxy.Status() {
		time.Sleep(time.Millisecond)
	}
	if st.StatementsDropped == 0 {
		t.Error("cqms_proxy_statements_dropped_total = 0, want > 0 with a stalled sink")
	}
	if got := st.StatementsCaptured + st.StatementsDropped; got != queries {
		t.Errorf("captured+dropped = %d, want %d (every statement accounted for)", got, queries)
	}
}

// TestProxyBackendDown: the proxy reports a FATAL ErrorResponse when it
// cannot reach the backend, and counts the dial error.
func TestProxyBackendDown(t *testing.T) {
	// A listener we close immediately: guaranteed-refused port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	addr, proxy := startProxy(t, nil, Config{Backend: deadAddr, DialTimeout: time.Second})
	_, err = DialFrontend(addr, "alice", "limnology")
	if err == nil {
		t.Fatal("DialFrontend succeeded with the backend down")
	}
	if !strings.Contains(err.Error(), "cannot reach backend") {
		t.Errorf("error = %v, want the proxy's FATAL 08001 message", err)
	}
	if got := proxy.Status().BackendDialErrors; got != 1 {
		t.Errorf("cqms_proxy_backend_dial_errors_total = %d, want 1", got)
	}
}

// TestProxyAdminEndpoints covers the status JSON and the Prometheus
// exposition the admin listener serves.
func TestProxyAdminEndpoints(t *testing.T) {
	backend, err := NewFakeBackend("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	addr, proxy := startProxy(t, &collectSink{}, Config{
		Backend: backend.Addr(),
		Capture: CaptureConfig{FlushEvery: 5 * time.Millisecond},
	})

	fe, err := DialFrontend(addr, "alice", "limnology")
	if err != nil {
		t.Fatal(err)
	}
	if err := fe.SimpleQuery("SELECT lake FROM WaterTemp"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "capture counter", func() bool {
		return proxy.Status().StatementsCaptured >= 1
	})

	srv := httptest.NewServer(proxy.AdminHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/proxy/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st client.ProxyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	if st.TotalConnections != 1 || st.StatementsCaptured != 1 || !st.CaptureEnabled {
		t.Errorf("status = %+v", st)
	}
	if st.ActiveConnections != 1 {
		t.Errorf("activeConnections = %d, want 1 (session still open)", st.ActiveConnections)
	}
	if st.BytesFromClients == 0 || st.BytesFromBackend == 0 {
		t.Errorf("splice byte counters empty: %+v", st)
	}
	fe.Close()

	mresp, err := srv.Client().Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, family := range []string{
		"cqms_proxy_connections_total",
		"cqms_proxy_statements_captured_total",
		"cqms_proxy_splice_bytes_total",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("metrics exposition missing %s", family)
		}
	}
}

// TestProxyConnectionCountsSettle: sessions closing bring the active gauge
// back to zero.
func TestProxyConnectionCountsSettle(t *testing.T) {
	backend, err := NewFakeBackend("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	addr, proxy := startProxy(t, nil, Config{Backend: backend.Addr()})

	for i := 0; i < 3; i++ {
		fe, err := DialFrontend(addr, "alice", "db")
		if err != nil {
			t.Fatal(err)
		}
		if err := fe.SimpleQuery("SELECT 1"); err != nil {
			t.Fatal(err)
		}
		fe.Close()
	}
	waitFor(t, "handlers to finish", func() bool {
		return proxy.Status().ActiveConnections == 0
	})
	if got := proxy.Status().TotalConnections; got != 3 {
		t.Errorf("totalConnections = %d, want 3", got)
	}
}
