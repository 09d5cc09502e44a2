// Package client is the Go client for the CQMS v1 HTTP API
// (internal/server). It is what cmd/cqmsctl, cmd/cqms-workload and the
// integration tests use to talk to a running CQMS server, playing the role
// of the paper's CQMS client.
//
// The client follows the v1 contract end to end: every method takes a
// context.Context (cancelling it aborts the server-side scan), the acting
// principal travels in the X-CQMS-* headers, failures surface the server's
// structured error envelope as *client.Error, and list endpoints return
// auto-paginating iterators that follow nextCursor transparently.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// defaultPageSize is the page size the iterators request — the server's
// maximum, because every search page re-runs the scan server-side, so a full
// drain (Iter.All) should take as few round trips as the server permits.
// Tune with WithPageSize for interactive consumers that stop early.
const defaultPageSize = 500

// Client talks to a CQMS server.
type Client struct {
	base       string
	httpClient *http.Client
	user       string
	groups     []string
	admin      bool
	pageSize   int
}

// Option configures a Client.
type Option func(*Client)

// WithUser sets the acting user and its groups.
func WithUser(user string, groups ...string) Option {
	return func(c *Client) { c.user, c.groups = user, groups }
}

// WithAdmin marks the client as acting with administrative rights.
func WithAdmin() Option {
	return func(c *Client) { c.admin = true }
}

// WithHTTPClient replaces the underlying *http.Client (timeouts, transport).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.httpClient = hc }
}

// WithPageSize sets the page size the auto-paginating iterators request.
func WithPageSize(n int) Option {
	return func(c *Client) { c.pageSize = n }
}

// New returns a client for the server at baseURL. Without options it acts as
// the anonymous principal.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(baseURL, "/"),
		httpClient: &http.Client{Timeout: 30 * time.Second},
		pageSize:   defaultPageSize,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// User returns the user the client acts as.
func (c *Client) User() string { return c.user }

// As returns a client acting as a different principal while sharing this
// client's *http.Client (and therefore its transport's connection pool).
// Callers that submit on behalf of many users — the workload replayer, the
// proxy's remote sink — derive per-user clients from one base instead of
// constructing independent clients, so every request reuses the same
// keep-alive connections.
func (c *Client) As(user string, groups ...string) *Client {
	derived := *c
	derived.user = user
	derived.groups = groups
	return &derived
}

// Error is a failed API call: the HTTP status and the server's structured
// error envelope.
type Error struct {
	Status int
	Path   string
	API    server.APIError
}

// Error implements the error interface. Envelope details are rendered in a
// stable order so a read_only refusal, for example, names the primary.
func (e *Error) Error() string {
	msg := fmt.Sprintf("client: %s: %s: %s (status %d)", e.Path, e.API.Code, e.API.Message, e.Status)
	if len(e.API.Details) == 0 {
		return msg
	}
	keys := make([]string, 0, len(e.API.Details))
	for k := range e.API.Details {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(msg)
	b.WriteString(" [")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", k, e.API.Details[k])
	}
	b.WriteString("]")
	return b.String()
}

// Code returns the machine-readable error code, the field clients should
// branch on.
func (e *Error) Code() server.ErrorCode { return e.API.Code }

// Details returns the envelope's details map (nil when the server sent none):
// machine-readable context such as the offending field, or the primary URL on
// a read_only refusal.
func (e *Error) Details() map[string]string { return e.API.Details }

// Detail returns one envelope detail ("" when absent).
func (e *Error) Detail(key string) string { return e.API.Details[key] }

// do performs one request against the v1 API: principal headers, JSON body
// in, JSON body out, envelope errors decoded into *Error.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body, out interface{}) error {
	var reader *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		reader = bytes.NewReader(b)
	} else {
		reader = bytes.NewReader(nil)
	}
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, reader)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.setPrincipalHeaders(req)
	resp, err := c.httpClient.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	bp := bodyPool.Get().(*[]byte)
	data, err := readBody(resp, (*bp)[:0])
	if err == nil || resp.StatusCode >= 400 {
		err = decodeResponse(resp.StatusCode, path, data, out)
	} else {
		err = fmt.Errorf("client: reading %s response: %w", path, err)
	}
	if cap(data) <= maxPooledBody {
		*bp = data
		bodyPool.Put(bp)
	}
	return err
}

// maxPooledBody caps the response buffers kept for reuse: one that a rare
// large body grew past it is left to the collector.
const maxPooledBody = 256 << 10

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// readBody appends the whole response body to b, sized up front from the
// Content-Length the server sends. Reading to the end lets the transport
// reuse the connection.
func readBody(resp *http.Response, b []byte) ([]byte, error) {
	if n := resp.ContentLength; n > 0 && n < maxPooledBody {
		b = slices.Grow(b, int(n)+1) // +1: the read that sees EOF needs room
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := resp.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// decodeResponse decodes a read body into out: an error status's envelope
// into *Error, and a success with the body type's own one-pass codec where it
// has one (server.SearchResponse, SubmitResponse and BatchSubmitResponse),
// with encoding/json otherwise. Nothing decoded refers to body.
func decodeResponse(status int, path string, body []byte, out interface{}) error {
	if status >= 400 {
		var envelope server.ErrorResponse
		if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code == "" {
			envelope.Error = server.APIError{Code: server.CodeInternal, Message: "unparsable error response"}
		}
		return &Error{Status: status, Path: path, API: envelope.Error}
	}
	if out == nil {
		return nil
	}
	var err error
	if dec, ok := out.(interface{ DecodeJSON([]byte) error }); ok {
		err = dec.DecodeJSON(body)
	} else {
		err = json.Unmarshal(body, out)
	}
	if err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// setPrincipalHeaders stamps the client's identity onto one request in the
// X-CQMS-* headers.
func (c *Client) setPrincipalHeaders(req *http.Request) {
	if c.user != "" {
		req.Header.Set(server.HeaderUser, c.user)
	}
	if len(c.groups) > 0 {
		req.Header.Set(server.HeaderGroups, strings.Join(c.groups, ","))
	}
	if c.admin {
		req.Header.Set(server.HeaderAdmin, "true")
	}
}

// ---------------------------------------------------------------------------
// Auto-paginating iterators
// ---------------------------------------------------------------------------

// Iter walks a paginated listing, fetching pages on demand. Use Next/Item to
// stream, All to collect the remainder, and Err after Next returns false.
type Iter[T any] struct {
	ctx   context.Context
	fetch func(ctx context.Context, cursor string) ([]T, string, error)
	buf   []T
	pos   int
	next  string
	done  bool
	err   error
}

func newIter[T any](ctx context.Context, fetch func(context.Context, string) ([]T, string, error)) *Iter[T] {
	return &Iter[T]{ctx: ctx, fetch: fetch}
}

// Next advances to the next item, fetching the next page when the buffered
// one is exhausted. It returns false at the end of the listing or on error.
func (it *Iter[T]) Next() bool {
	if it.err != nil {
		return false
	}
	for it.pos >= len(it.buf) {
		if it.done {
			return false
		}
		items, next, err := it.fetch(it.ctx, it.next)
		if err != nil {
			it.err = err
			return false
		}
		it.buf, it.pos, it.next = items, 0, next
		it.done = next == ""
	}
	it.pos++
	return true
}

// Item returns the current item. Valid only after Next returned true.
func (it *Iter[T]) Item() T { return it.buf[it.pos-1] }

// Err returns the error that stopped iteration, if any.
func (it *Iter[T]) Err() error { return it.err }

// All drains the iterator and returns every remaining item.
func (it *Iter[T]) All() ([]T, error) {
	var out []T
	for it.Next() {
		out = append(out, it.Item())
	}
	return out, it.Err()
}

// ---------------------------------------------------------------------------
// Traditional mode
// ---------------------------------------------------------------------------

// SubmitOption configures one submission.
type SubmitOption func(*server.SubmitParams)

// Group attributes the query to a group.
func Group(group string) SubmitOption {
	return func(p *server.SubmitParams) { p.Group = group }
}

// Visibility sets the logged query's visibility: private, group or public.
func Visibility(v string) SubmitOption {
	return func(p *server.SubmitParams) { p.Visibility = v }
}

// Submit runs a SQL query through the CQMS (Traditional mode).
func (c *Client) Submit(ctx context.Context, sqlText string, opts ...SubmitOption) (*server.SubmitResponse, error) {
	params := server.SubmitParams{SQL: sqlText}
	for _, opt := range opts {
		opt(&params)
	}
	var resp server.SubmitResponse
	if err := c.do(ctx, http.MethodPost, "/v1/queries", nil, params, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubmitBatch submits many queries in one round trip. Results mirror the
// input order; per-query failures are reported per item, not as a call
// error.
func (c *Client) SubmitBatch(ctx context.Context, queries []server.SubmitParams) (*server.BatchSubmitResponse, error) {
	var resp server.BatchSubmitResponse
	err := c.do(ctx, http.MethodPost, "/v1/queries:batch", nil, server.BatchSubmitRequest{Queries: queries}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// GetQuery fetches one logged query.
func (c *Client) GetQuery(ctx context.Context, queryID int64) (*server.QueryDTO, error) {
	var resp server.QueryDTO
	err := c.do(ctx, http.MethodGet, "/v1/queries/"+strconv.FormatInt(queryID, 10), nil, nil, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Annotate attaches an annotation to a logged query.
func (c *Client) Annotate(ctx context.Context, queryID int64, text string) error {
	return c.do(ctx, http.MethodPost,
		"/v1/queries/"+strconv.FormatInt(queryID, 10)+"/annotations",
		nil, server.AnnotateParams{Text: text}, nil)
}

// DeleteQuery removes a logged query.
func (c *Client) DeleteQuery(ctx context.Context, queryID int64) error {
	return c.do(ctx, http.MethodDelete, "/v1/queries/"+strconv.FormatInt(queryID, 10), nil, nil, nil)
}

// SetVisibility changes a logged query's visibility.
func (c *Client) SetVisibility(ctx context.Context, queryID int64, visibility string) error {
	return c.do(ctx, http.MethodPut,
		"/v1/queries/"+strconv.FormatInt(queryID, 10)+"/visibility",
		nil, server.VisibilityParams{Visibility: visibility}, nil)
}

// ---------------------------------------------------------------------------
// Search & browse mode
// ---------------------------------------------------------------------------

// searchIter pages one search kind through POST /v1/search/{kind}.
func (c *Client) searchIter(ctx context.Context, kind string, params server.SearchParams) *Iter[server.MatchDTO] {
	params.Limit = c.pageSize
	return newIter(ctx, func(ctx context.Context, cursor string) ([]server.MatchDTO, string, error) {
		p := params
		p.Cursor = cursor
		var resp server.SearchResponse
		if err := c.do(ctx, http.MethodPost, "/v1/search/"+kind, nil, p, &resp); err != nil {
			return nil, "", err
		}
		return resp.Matches, resp.NextCursor, nil
	})
}

// SearchKeyword performs keyword search over the visible query log.
func (c *Client) SearchKeyword(ctx context.Context, keywords ...string) *Iter[server.MatchDTO] {
	return c.searchIter(ctx, "keyword", server.SearchParams{Keywords: keywords})
}

// SearchSubstring performs substring search over the visible query log.
func (c *Client) SearchSubstring(ctx context.Context, substring string) *Iter[server.MatchDTO] {
	return c.searchIter(ctx, "substring", server.SearchParams{Substring: substring})
}

// MetaQuery runs a SQL meta-query over the feature relations.
func (c *Client) MetaQuery(ctx context.Context, metaSQL string) *Iter[server.MatchDTO] {
	return c.searchIter(ctx, "metaquery", server.SearchParams{MetaSQL: metaSQL})
}

// SearchPartial finds the logged queries that reference every table and
// attribute a partially written query names.
func (c *Client) SearchPartial(ctx context.Context, partial string) *Iter[server.MatchDTO] {
	return c.searchIter(ctx, "partial", server.SearchParams{Partial: partial})
}

// ByData runs a query-by-data search.
func (c *Client) ByData(ctx context.Context, include, exclude []string) *Iter[server.MatchDTO] {
	return c.searchIter(ctx, "bydata", server.SearchParams{Include: include, Exclude: exclude})
}

// Similar returns the k most similar logged queries to the given SQL (k <= 0
// ranks the whole visible log).
func (c *Client) Similar(ctx context.Context, sqlText string, k int) *Iter[server.MatchDTO] {
	return c.searchIter(ctx, "similar", server.SearchParams{SQL: sqlText, K: k})
}

// History returns the caller's (or another user's) query history in temporal
// order.
func (c *Client) History(ctx context.Context, of string) *Iter[server.MatchDTO] {
	return newIter(ctx, func(ctx context.Context, cursor string) ([]server.MatchDTO, string, error) {
		query := url.Values{}
		if of != "" {
			query.Set("of", of)
		}
		query.Set("limit", strconv.Itoa(c.pageSize))
		if cursor != "" {
			query.Set("cursor", cursor)
		}
		var resp server.SearchResponse
		if err := c.do(ctx, http.MethodGet, "/v1/history", query, nil, &resp); err != nil {
			return nil, "", err
		}
		return resp.Matches, resp.NextCursor, nil
	})
}

// Sessions lists detected sessions visible to the caller.
func (c *Client) Sessions(ctx context.Context) *Iter[server.SessionDTO] {
	return newIter(ctx, func(ctx context.Context, cursor string) ([]server.SessionDTO, string, error) {
		query := url.Values{}
		query.Set("limit", strconv.Itoa(c.pageSize))
		if cursor != "" {
			query.Set("cursor", cursor)
		}
		var resp server.SessionsResponse
		if err := c.do(ctx, http.MethodGet, "/v1/sessions", query, nil, &resp); err != nil {
			return nil, "", err
		}
		return resp.Sessions, resp.NextCursor, nil
	})
}

// SessionGraph fetches the rendered Figure 2 graph of one session.
func (c *Client) SessionGraph(ctx context.Context, id int64) (string, error) {
	var resp server.GraphResponse
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+strconv.FormatInt(id, 10)+"/graph", nil, nil, &resp)
	if err != nil {
		return "", err
	}
	return resp.Graph, nil
}

// ---------------------------------------------------------------------------
// Assisted mode
// ---------------------------------------------------------------------------

// Complete requests completion suggestions for a partial query.
func (c *Client) Complete(ctx context.Context, partial string, k int) ([]server.CompletionDTO, error) {
	var resp server.AssistResponse
	err := c.do(ctx, http.MethodPost, "/v1/assist/complete", nil, server.CompleteParams{Partial: partial, K: k}, &resp)
	return resp.Completions, err
}

// Corrections requests correction suggestions for a query.
func (c *Client) Corrections(ctx context.Context, queryText string) ([]server.CorrectionDTO, error) {
	var resp server.AssistResponse
	err := c.do(ctx, http.MethodPost, "/v1/assist/corrections", nil, server.CompleteParams{Partial: queryText}, &resp)
	return resp.Corrections, err
}

// SimilarQueries requests the Figure 3 similar-queries pane.
func (c *Client) SimilarQueries(ctx context.Context, queryText string, k int) ([]server.SimilarQueryDTO, error) {
	var resp server.AssistResponse
	err := c.do(ctx, http.MethodPost, "/v1/assist/similar", nil, server.CompleteParams{Partial: queryText, K: k}, &resp)
	return resp.Similar, err
}

// Tutorial fetches the generated data-set tutorial.
func (c *Client) Tutorial(ctx context.Context, perTable int) ([]server.TutorialStepDTO, error) {
	query := url.Values{}
	if perTable > 0 {
		query.Set("per_table", strconv.Itoa(perTable))
	}
	var resp []server.TutorialStepDTO
	err := c.do(ctx, http.MethodGet, "/v1/assist/tutorial", query, nil, &resp)
	return resp, err
}

// ---------------------------------------------------------------------------
// Administrative mode
// ---------------------------------------------------------------------------

// Mine triggers a mining pass on the server.
func (c *Client) Mine(ctx context.Context) (*server.MineResponse, error) {
	var resp server.MineResponse
	if err := c.do(ctx, http.MethodPost, "/v1/admin/mine", nil, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Maintain triggers a maintenance scan on the server.
func (c *Client) Maintain(ctx context.Context) (*server.MaintainResponse, error) {
	var resp server.MaintainResponse
	if err := c.do(ctx, http.MethodPost, "/v1/admin/maintain", nil, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// LogInfo reports the server's durable query-log state.
func (c *Client) LogInfo(ctx context.Context) (*server.LogInfoResponse, error) {
	var resp server.LogInfoResponse
	if err := c.do(ctx, http.MethodGet, "/v1/admin/log", nil, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// LogBackup forces a full-store snapshot (a consistent point-in-time backup
// on the server) and returns its location.
func (c *Client) LogBackup(ctx context.Context) (*server.LogSnapshotResponse, error) {
	var resp server.LogSnapshotResponse
	if err := c.do(ctx, http.MethodPost, "/v1/admin/log/snapshot", nil, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// LogCompact snapshots the store and removes the WAL segments the snapshot
// covers.
func (c *Client) LogCompact(ctx context.Context) (*server.LogSnapshotResponse, error) {
	var resp server.LogSnapshotResponse
	if err := c.do(ctx, http.MethodPost, "/v1/admin/log/compact", nil, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ProxyStatus is the cqms-proxy admin endpoint's GET /v1/proxy/status
// document; the proxy (internal/pgwire) builds it and the client decodes it.
// Role and UptimeSeconds mirror the server's shared status document (see
// server.StatusDocDTO), so every status surface in the topology reads the
// same way.
type ProxyStatus struct {
	// Role is this process's place in the topology; always "proxy" here.
	Role string `json:"role"`
	// UptimeSeconds since the proxy was created.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Backend       string  `json:"backend"`
	// ActiveConnections is the number of currently proxied sessions.
	ActiveConnections int64 `json:"activeConnections"`
	// TotalConnections accepted since start.
	TotalConnections uint64 `json:"totalConnections"`
	// StatementsCaptured / StatementsDropped are the capture totals; dropped
	// statements were observed while the capture queue was full.
	StatementsCaptured uint64 `json:"statementsCaptured"`
	StatementsDropped  uint64 `json:"statementsDropped"`
	SubmitErrors       uint64 `json:"submitErrors"`
	BackendDialErrors  uint64 `json:"backendDialErrors"`
	// SpliceBytes relayed in each direction.
	BytesFromClients uint64 `json:"bytesFromClients"`
	BytesFromBackend uint64 `json:"bytesFromBackend"`
	// CaptureEnabled is false when the proxy runs as a pure splice.
	CaptureEnabled bool `json:"captureEnabled"`
}

// GetProxyStatus fetches a cqms-proxy's status snapshot. The client must be
// pointed at the proxy's admin address (-admin, default :6433), not at a
// cqms-server.
func (c *Client) GetProxyStatus(ctx context.Context) (*ProxyStatus, error) {
	var resp ProxyStatus
	if err := c.do(ctx, http.MethodGet, "/v1/proxy/status", nil, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches server-wide counters.
func (c *Client) Stats(ctx context.Context) (*server.StatsResponse, error) {
	var resp server.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Metrics fetches the Prometheus text exposition from GET /v1/metrics. The
// body is returned verbatim (it is not JSON); admin clients additionally see
// the admin-only families.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.getRaw(ctx, "/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: reading /v1/metrics response: %w", err)
	}
	return string(body), nil
}
