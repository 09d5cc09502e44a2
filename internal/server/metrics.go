package server

import (
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// httpMetrics bundles the HTTP-layer instruments. Per-route series are wired
// at route-registration time (Server.handleFunc) rather than looked up per
// request: Go 1.22's http.Request has no matched-pattern field, and a
// registration-time closure is cheaper than a map lookup anyway.
type httpMetrics struct {
	reg       *telemetry.Registry
	inFlight  *telemetry.Gauge
	requests  *telemetry.CounterVec   // route, class
	latency   *telemetry.HistogramVec // route
	reqBytes  *telemetry.Counter
	respBytes *telemetry.Counter
	unmatched *telemetry.Counter
}

func newHTTPMetrics(reg *telemetry.Registry) *httpMetrics {
	return &httpMetrics{
		reg: reg,
		inFlight: reg.Gauge("cqms_http_in_flight_requests",
			"Requests currently being served."),
		requests: reg.CounterVec("cqms_http_requests_total",
			"Completed requests by route pattern and status class.",
			"route", "class"),
		latency: reg.HistogramVec("cqms_http_request_seconds",
			"Handler latency by route pattern.",
			telemetry.DefBuckets, "route"),
		reqBytes: reg.Counter("cqms_http_request_bytes_total",
			"Request body bytes received (Content-Length sum)."),
		respBytes: reg.Counter("cqms_http_response_bytes_total",
			"Response body bytes written."),
		unmatched: reg.Counter("cqms_http_unmatched_total",
			"Requests that matched no route (404/405 envelopes)."),
	}
}

// statusClasses indexes routeMetrics.classes: status/100 clamped to [0,5],
// where 0 is the never-happens fallback.
var statusClasses = [6]string{"unknown", "1xx", "2xx", "3xx", "4xx", "5xx"}

// routeMetrics holds one route's cached series. The latency child is created
// eagerly (one histogram per registered route); the per-class counters are
// created on first hit so the exposition only carries classes a route has
// actually returned.
type routeMetrics struct {
	m       *httpMetrics
	route   string
	latency *telemetry.Histogram
	classes [6]atomic.Pointer[telemetry.Counter]
}

func (m *httpMetrics) route(pattern string) *routeMetrics {
	return &routeMetrics{m: m, route: pattern, latency: m.latency.With(pattern)}
}

// done records one completed request. Creating a missing class counter twice
// under a race is harmless: CounterVec.With is idempotent, both racers get
// the same child.
func (rt *routeMetrics) done(status int, d time.Duration) {
	idx := status / 100
	if idx < 1 || idx > 5 {
		idx = 0
	}
	ctr := rt.classes[idx].Load()
	if ctr == nil {
		ctr = rt.m.requests.With(rt.route, statusClasses[idx])
		rt.classes[idx].Store(ctr)
	}
	ctr.Inc()
	rt.latency.Observe(d)
}

// Instrument maintains the request-scoped HTTP instruments: the in-flight
// gauge and the request/response byte counters. It installs the shared
// statusWriter that the per-route wrappers, AccessLog, SlowRequestLog and
// Recover all reuse.
func Instrument(m *httpMetrics) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			m.inFlight.Inc()
			defer m.inFlight.Dec()
			if r.ContentLength > 0 {
				m.reqBytes.Add(uint64(r.ContentLength))
			}
			sw := ensureStatusWriter(w)
			before := sw.bytes
			next.ServeHTTP(sw, r)
			m.respBytes.Add(uint64(sw.bytes - before))
		})
	}
}

// handleV1Metrics serves the Prometheus text exposition. Any principal may
// scrape, and every principal reads every family.
func (s *Server) handleV1Metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.cqms.Metrics().WritePrometheus(w, false)
}

// handleV1Pprof gates net/http/pprof behind the admin flag and dispatches on
// the path tail under /v1/admin/debug/pprof/. Profiles expose query text and
// internal addresses, so they get the same protection as the rest of the
// admin surface.
func (s *Server) handleV1Pprof(w http.ResponseWriter, r *http.Request) {
	if !PrincipalFrom(r.Context()).Admin {
		writeError(w, Errorf(CodePermissionDenied, "pprof requires the admin flag"))
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/v1/admin/debug/pprof/")
	switch name {
	case "":
		// pprof.Index links relative to the request path, so the directory
		// listing works unchanged under the /v1 prefix.
		pprof.Index(w, r)
	case "cmdline":
		pprof.Cmdline(w, r)
	case "profile":
		pprof.Profile(w, r)
	case "symbol":
		pprof.Symbol(w, r)
	case "trace":
		pprof.Trace(w, r)
	default:
		// Named runtime profiles: heap, goroutine, block, mutex, allocs,
		// threadcreate. Unknown names get pprof's own 404.
		pprof.Handler(name).ServeHTTP(w, r)
	}
}
