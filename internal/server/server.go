package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metaquery"
	"repro/internal/profiler"
	"repro/internal/session"
)

// maxBodyBytes caps a request body: malformed or hostile payloads fail
// loudly instead of half-applying.
const maxBodyBytes = 1 << 20 // 1 MiB

// One POST /v1/queries:batch may carry at most MaxBatchQueries queries
// (more are rejected whole with invalid_argument) and MaxBatchBodyBytes of
// body (more is rejected whole with payload_too_large). Exported so clients
// can split before sending.
const (
	MaxBatchQueries   = 500
	MaxBatchBodyBytes = 8 << 20 // 8 MiB
)

// Server is the CQMS HTTP server: the versioned /v1/ API. The legacy
// unversioned /api/ shims are gone; requests there receive a 404 envelope
// with an `upgrade` hint naming the v1 surface.
type Server struct {
	cqms        *core.CQMS
	mux         *http.ServeMux
	logger      *log.Logger
	handler     http.Handler
	metrics     *httpMetrics
	slowRequest time.Duration
}

// Option configures a Server.
type Option func(*Server)

// WithLogger enables access logging and panic reporting on the given logger.
func WithLogger(logger *log.Logger) Option {
	return func(s *Server) { s.logger = logger }
}

// WithSlowRequests logs any request slower than threshold (with its request
// ID) on the server's logger. Zero or negative disables the slow-request log.
func WithSlowRequests(threshold time.Duration) Option {
	return func(s *Server) { s.slowRequest = threshold }
}

// New returns a server over the given CQMS instance with the standard
// middleware chain installed: request IDs, header principals, HTTP
// instrumentation, panic recovery and (when a logger is configured) access
// and slow-request logging.
func New(c *core.CQMS, opts ...Option) *Server {
	s := &Server{cqms: c, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(s)
	}
	s.metrics = newHTTPMetrics(c.Metrics())
	s.routes()
	// HeaderPrincipal runs before AccessLog so the log line carries the
	// context principal; Instrument installs the shared statusWriter that the
	// logging and recovery middlewares (and the per-route wrappers) reuse.
	s.handler = Chain(s.jsonFallback(s.mux),
		RequestID(),
		HeaderPrincipal(),
		Instrument(s.metrics),
		AccessLog(s.logger),
		SlowRequestLog(s.logger, s.slowRequest),
		Recover(s.logger),
	)
	return s
}

// Handler returns the http.Handler for the server (middleware included).
func (s *Server) Handler() http.Handler { return s.handler }

func (s *Server) routes() {
	// Versioned v1 API: method-pattern routing, principal in X-CQMS-*
	// headers, cursor pagination on list endpoints. Mutating routes go
	// through writable(), which refuses them with read_only on a follower.
	s.handleFunc("POST /v1/queries", s.writable(s.handleV1Submit))
	s.handleFunc("POST /v1/queries:batch", s.writable(s.handleV1SubmitBatch))
	s.handleFunc("GET /v1/queries/{id}", s.handleV1GetQuery)
	s.handleFunc("DELETE /v1/queries/{id}", s.writable(s.handleV1DeleteQuery))
	s.handleFunc("POST /v1/queries/{id}/annotations", s.writable(s.handleV1Annotate))
	s.handleFunc("PUT /v1/queries/{id}/visibility", s.writable(s.handleV1Visibility))
	s.handleFunc("GET /v1/history", s.handleV1History)
	s.handleFunc("GET /v1/sessions", s.handleV1Sessions)
	s.handleFunc("GET /v1/sessions/{id}/graph", s.handleV1SessionGraph)
	s.handleFunc("POST /v1/search/keyword", s.handleV1Search("keyword"))
	s.handleFunc("POST /v1/search/substring", s.handleV1Search("substring"))
	s.handleFunc("POST /v1/search/metaquery", s.handleV1Search("metaquery"))
	s.handleFunc("POST /v1/search/partial", s.handleV1Search("partial"))
	s.handleFunc("POST /v1/search/bydata", s.handleV1Search("bydata"))
	s.handleFunc("POST /v1/search/similar", s.handleV1Search("similar"))
	s.handleFunc("POST /v1/assist/complete", s.handleV1Complete)
	s.handleFunc("POST /v1/assist/corrections", s.handleV1Corrections)
	s.handleFunc("POST /v1/assist/similar", s.handleV1SimilarQueries)
	s.handleFunc("GET /v1/assist/tutorial", s.handleV1Tutorial)
	s.handleFunc("POST /v1/admin/mine", s.handleV1Mine)
	s.handleFunc("POST /v1/admin/maintain", s.writable(s.handleV1Maintain))
	s.handleFunc("GET /v1/admin/log", s.handleV1LogInfo)
	s.handleFunc("POST /v1/admin/log/snapshot", s.writable(s.handleV1LogSnapshot))
	s.handleFunc("POST /v1/admin/log/compact", s.writable(s.handleV1LogCompact))
	s.handleFunc("GET /v1/stats", s.handleV1Stats)
	s.handleFunc("GET /v1/metrics", s.handleV1Metrics)
	// Replication: snapshot bootstrap and the CRC-framed WAL tail are
	// admin-gated (they expose the whole log regardless of visibility);
	// status is open like /v1/stats.
	s.handleFunc("GET /v1/replication/status", s.handleV1ReplicationStatus)
	s.handleFunc("GET /v1/replication/snapshot", s.handleV1ReplicationSnapshot)
	s.handleFunc("GET /v1/replication/wal", s.handleV1ReplicationWAL)
	// The trailing-slash pattern matches the whole pprof subtree (index,
	// named profiles, cmdline/profile/trace); symbol additionally accepts
	// POST bodies per the pprof protocol.
	s.handleFunc("GET /v1/admin/debug/pprof/", s.handleV1Pprof)
	s.handleFunc("POST /v1/admin/debug/pprof/symbol", s.handleV1Pprof)
}

// writable gates a mutating route: on a follower it refuses with the
// structured read_only error naming the primary, before the handler reads
// the body.
func (s *Server) writable(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cqms.Role() == core.RoleFollower {
			writeError(w, readOnlyError(s.cqms.PrimaryURL()))
			return
		}
		fn(w, r)
	}
}

// handleFunc registers one route, wrapping the handler so its latency and
// status class land in the per-route HTTP metrics. The route label is the
// registration pattern, so path parameters ({id}) stay unexpanded and the
// label set is bounded by the route table. The wrapper deliberately records
// only on normal return: a panicking handler is counted by nothing here and
// surfaces through Recover's log line instead.
func (s *Server) handleFunc(pattern string, fn http.HandlerFunc) {
	rt := s.metrics.route(pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := ensureStatusWriter(w)
		start := time.Now()
		fn(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		rt.done(status, time.Since(start))
	})
}

// jsonFallback wraps the mux so that unmatched requests produce the JSON
// error envelope instead of net/http's plain-text defaults: unknown routes
// get a 404 envelope, method mismatches a 405 envelope with the Allow header
// listing the methods the path does support.
func (s *Server) jsonFallback(mux *http.ServeMux) http.Handler {
	probeMethods := []string{
		http.MethodGet, http.MethodPost, http.MethodPut,
		http.MethodPatch, http.MethodDelete,
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, pattern := mux.Handler(r); pattern != "" {
			mux.ServeHTTP(w, r)
			return
		}
		s.metrics.unmatched.Inc()
		var allowed []string
		for _, m := range probeMethods {
			probe := &http.Request{Method: m, URL: r.URL, Host: r.Host}
			if _, pattern := mux.Handler(probe); pattern != "" {
				allowed = append(allowed, m)
			}
		}
		if len(allowed) > 0 {
			w.Header().Set("Allow", strings.Join(allowed, ", "))
			writeError(w, Errorf(CodeMethodNotAllowed,
				"method %s not allowed for %s", r.Method, r.URL.Path))
			return
		}
		// The removed legacy surface gets an upgrade hint: every /api/*
		// operation has a v1 equivalent with the principal in headers.
		if strings.HasPrefix(r.URL.Path, "/api/") {
			err := Errorf(CodeNotFound, "the unversioned /api surface has been removed")
			err.Details = map[string]string{
				"upgrade": "use the versioned /v1 API (principal in X-CQMS-* headers); see API.md",
			}
			writeError(w, err)
			return
		}
		writeError(w, Errorf(CodeNotFound, "no route for %s", r.URL.Path))
	})
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// maxPooledBody caps the response buffers kept for reuse: one that a rare
// large body grew past it is left to the collector, so a big listing does
// not stay resident.
const maxPooledBody = 256 << 10

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeJSON sends v with the given status. The whole body is built before
// anything is sent — by v's own AppendJSON (codec.go) if it has one, by
// encoding/json otherwise — so a value that does not encode (a NaN float) is
// answered with the 500 internal envelope, not a 200 and a cut body, and the
// response carries its Content-Length and goes out in one write.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	bp := bodyPool.Get().(*[]byte)
	body, err := appendBody((*bp)[:0], v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = appendBody(body[:0], ErrorResponse{Error: APIError{
			Code: CodeInternal, Message: "encoding response: " + err.Error()}})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is a client gone; there is no one to tell
	if cap(body) <= maxPooledBody {
		*bp = body
		bodyPool.Put(bp)
	}
}

// appendBody appends the JSON body of v, trailing newline included.
func appendBody(b []byte, v interface{}) ([]byte, error) {
	if a, ok := v.(interface{ AppendJSON([]byte) ([]byte, error) }); ok {
		return a.AppendJSON(b)
	}
	buf := bytes.NewBuffer(b)
	err := json.NewEncoder(buf).Encode(v)
	return buf.Bytes(), err
}

// decode parses a JSON request body. Unknown fields and oversized bodies are
// rejected so malformed client payloads fail loudly instead of half-applying.
func decode(w http.ResponseWriter, r *http.Request, v interface{}) error {
	return decodeCapped(w, r, v, maxBodyBytes)
}

func decodeCapped(w http.ResponseWriter, r *http.Request, v interface{}, cap int64) error {
	body := http.MaxBytesReader(w, r.Body, cap)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return err // coerced to payload_too_large by writeError
		}
		return Errorf(CodeInvalidArgument, "decoding request body: %v", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return Errorf(CodeInvalidArgument, "request body holds more than one JSON value")
	}
	return nil
}

// asInvalidArgument maps a user-input error onto the invalid_argument code.
// An error coerceAPIError has a code for — cancellation, a typed envelope
// error, the store's own refusals — keeps it.
func asInvalidArgument(err error) error {
	var apiErr *APIError
	if errors.As(err, &apiErr) || coerceAPIError(err).Code != CodeInternal {
		return err
	}
	return Errorf(CodeInvalidArgument, "%v", err)
}

// pathID parses the {id} path segment.
func pathID(r *http.Request) (int64, error) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		return 0, Errorf(CodeInvalidArgument, "invalid id %q", r.PathValue("id"))
	}
	return id, nil
}

func (s *Server) matchesToDTO(matches []metaquery.Match) []MatchDTO {
	out := make([]MatchDTO, 0, len(matches))
	for _, m := range matches {
		out = append(out, MatchDTO{Query: s.queryDTO(m.Record), Score: m.Score, Why: m.Why})
	}
	return out
}

// ---------------------------------------------------------------------------
// Shared handler logic used by the v1 handlers.
// ---------------------------------------------------------------------------

// submitResponse converts a profiler outcome into the wire response; the
// answer carries the rows it inlines (profiler.MaxInlineRows) rendered.
func submitResponse(out *profiler.Outcome) SubmitResponse {
	resp := SubmitResponse{
		QueryID:           int64(out.QueryID),
		SuggestAnnotation: out.SuggestAnnotation,
	}
	if out.ExecError != nil {
		resp.ExecError = out.ExecError.Error()
	} else if ans := out.Result; ans != nil {
		resp.Columns = ans.Columns
		resp.Rows = ans.Rows
		resp.RowCount = ans.RowCount
		resp.ExecMillis = float64(ans.Elapsed.Microseconds()) / 1000.0
	}
	return resp
}

func (s *Server) sessionDTOs(sums []session.Summary) []SessionDTO {
	out := make([]SessionDTO, 0, len(sums))
	for _, sum := range sums {
		out = append(out, SessionDTO{
			ID: sum.ID, User: sum.User, QueryCount: sum.QueryCount,
			Start: sum.Start, End: sum.End, Tables: sum.Tables,
		})
	}
	return out
}
