package pgwire

import (
	"context"
	"net"
	"testing"
)

// benchProxy starts a fake backend and a proxy over it, returning a connected
// frontend. sink nil = pure splice (the overhead baseline).
func benchProxy(b *testing.B, sink Sink) *FrontendConn {
	b.Helper()
	backend, err := NewFakeBackend("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(backend.Close)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	p := NewProxy(sink, Config{Backend: backend.Addr()})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = p.Serve(ctx, ln)
	}()
	b.Cleanup(func() {
		cancel()
		<-done
		p.Close()
	})

	fe, err := DialFrontend(ln.Addr().String(), "bench", "benchdb")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { fe.Close() })
	return fe
}

const benchQuery = "SELECT lake, temp FROM WaterTemp WHERE temp > 5 AND loc_x = 10"

// BenchmarkProxySplice measures a full simple-query round trip through the
// proxy with capture disabled: the pure splice cost (codec, re-framing, two
// socket hops) on top of the client/backend round trip itself.
func BenchmarkProxySplice(b *testing.B) {
	fe := benchProxy(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fe.SimpleQuery(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProxyCaptureOverhead is the same round trip with capture on (a
// no-op sink behind the default async queue): the delta against
// BenchmarkProxySplice is what statement capture costs a proxied session.
func BenchmarkProxyCaptureOverhead(b *testing.B) {
	discard := sinkFunc(func(context.Context, []Captured) error { return nil })
	fe := benchProxy(b, discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fe.SimpleQuery(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}
