package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Replication client: implements core.ReplicationSource over the primary's
// /v1/replication API, so `cqms-server -follow <primary>` can hand a plain
// admin Client to core.OpenFollower. The snapshot and WAL bodies are raw CRC
// frames (see internal/wal), read straight off the response body frame by
// frame and decoded strictly — a torn network body is refetched, never
// partially applied.

// Primary names the upstream this client points at (its base URL). Part of
// the core.ReplicationSource contract.
func (c *Client) Primary() string { return c.base }

// FetchSnapshot pulls the primary's newest snapshot
// (GET /v1/replication/snapshot) and stages it chunk by chunk as the body
// arrives: the covered log sequence and the decoded store state. ok is false
// when the primary has no snapshot yet.
func (c *Client) FetchSnapshot(ctx context.Context) (seq uint64, state *storage.StoreState, ok bool, err error) {
	resp, err := c.getRaw(ctx, "/v1/replication/snapshot", nil)
	if err != nil {
		return 0, nil, false, err
	}
	defer resp.Body.Close()
	hdrSeq, err := strconv.ParseUint(resp.Header.Get("X-CQMS-Repl-Snapshot-Seq"), 10, 64)
	if err != nil {
		return 0, nil, false, fmt.Errorf("client: replication snapshot: bad sequence header: %w", err)
	}
	if hdrSeq == 0 {
		// Empty body: no snapshot on the primary; replay the log from 0.
		return 0, nil, false, nil
	}
	snap, err := wal.ReadSnapshot(resp.Body)
	if err != nil {
		return 0, nil, false, err
	}
	if snap.Seq != hdrSeq {
		return 0, nil, false, fmt.Errorf("client: replication snapshot: body sequence %d != header %d", snap.Seq, hdrSeq)
	}
	return snap.Seq, snap.State, true, nil
}

// FetchWAL streams records with sequence > after from the primary
// (GET /v1/replication/wal) to fn, long-polling up to wait when the tail is
// empty. A compacted cursor surfaces as wal.ErrCompacted. Part of the
// core.ReplicationSource contract.
func (c *Client) FetchWAL(ctx context.Context, after uint64, wait time.Duration, fn func(seq uint64, payload []byte) error) (primarySeq uint64, bytes int64, err error) {
	query := url.Values{}
	query.Set("after", strconv.FormatUint(after, 10))
	if wait > 0 {
		query.Set("wait", wait.String())
	}
	resp, err := c.getRaw(ctx, "/v1/replication/wal", query)
	if err != nil {
		var apiErr *Error
		if errors.As(err, &apiErr) && apiErr.Detail("reason") == "compacted" {
			return 0, 0, fmt.Errorf("client: replication wal after %d: %w", after, wal.ErrCompacted)
		}
		return 0, 0, err
	}
	defer resp.Body.Close()
	primarySeq, err = strconv.ParseUint(resp.Header.Get("X-CQMS-Repl-Log-Seq"), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("client: replication wal: bad log-sequence header: %w", err)
	}
	counting := &countingReader{r: resp.Body}
	if err := wal.ReadFrames(counting, fn); err != nil {
		return primarySeq, counting.n, err
	}
	return primarySeq, counting.n, nil
}

// getRaw performs a GET whose success body is not JSON (the replication
// stream endpoints): principal headers go on, envelope errors are decoded
// into *Error, and the caller owns the response body.
func (c *Client) getRaw(ctx context.Context, path string, query url.Values) (*http.Response, error) {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("client: building request: %w", err)
	}
	c.setPrincipalHeaders(req)
	resp, err := c.httpClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: GET %s: %w", path, err)
	}
	if resp.StatusCode >= 400 {
		defer resp.Body.Close()
		var envelope server.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error.Code == "" {
			envelope.Error = server.APIError{Code: server.CodeInternal, Message: "unparsable error response"}
		}
		return nil, &Error{Status: resp.StatusCode, Path: path, API: envelope.Error}
	}
	return resp, nil
}

// countingReader tracks bytes read from the stream body.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ReplicationStatus fetches a process's replication position
// (GET /v1/replication/status). Works against either role: a primary reports
// its log position, a follower additionally reports its lag and staleness.
func (c *Client) ReplicationStatus(ctx context.Context) (*server.ReplicationStatusResponse, error) {
	var resp server.ReplicationStatusResponse
	if err := c.do(ctx, http.MethodGet, "/v1/replication/status", nil, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
