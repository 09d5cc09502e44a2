// Package server exposes the CQMS over HTTP/JSON, realising the
// client-server architecture of Figure 4: the CQMS client communicates with
// the CQMS server through standard SQL queries (the Traditional mode
// endpoint) and meta-queries (the Search & Browse and Assisted mode
// endpoints), plus the administrative endpoints of §2.4.
//
// The service contract is the versioned /v1/ API (see API.md): Go 1.22
// method-pattern routing, the caller's principal in X-CQMS-* headers, a
// structured error envelope with machine-readable codes, cursor pagination
// on every list endpoint, and a batch submit endpoint that amortises the
// store's commit lock. The unversioned /api/ surface has been removed; any
// request under it gets a not_found envelope with an upgrade hint.
//
// Authentication is out of scope for the paper and for this reproduction:
// each request declares its principal (user, groups, admin flag), and the
// storage layer enforces the visibility rules on that declared identity.
package server

import (
	"time"

	"repro/internal/storage"
)

// SubmitParams is the v1 Traditional-mode request body (POST /v1/queries);
// the principal travels in the X-CQMS-* headers.
type SubmitParams struct {
	SQL        string `json:"sql"`
	Group      string `json:"group,omitempty"`
	Visibility string `json:"visibility,omitempty"` // private, group, public
}

// BatchSubmitRequest submits many queries in one round trip
// (POST /v1/queries:batch), amortising the store's commit lock.
type BatchSubmitRequest struct {
	Queries []SubmitParams `json:"queries"`
}

// BatchItemResult is one entry of a batch response: exactly one of Result
// and Error is set, in the order the queries were submitted.
type BatchItemResult struct {
	Result *SubmitResponse `json:"result,omitempty"`
	Error  *APIError       `json:"error,omitempty"`
}

// BatchSubmitResponse mirrors BatchSubmitRequest.Queries index by index.
type BatchSubmitResponse struct {
	Results []BatchItemResult `json:"results"`
}

// SubmitResponse returns the execution result and logging metadata.
type SubmitResponse struct {
	QueryID           int64      `json:"queryId"`
	Columns           []string   `json:"columns,omitempty"`
	Rows              [][]string `json:"rows,omitempty"`
	RowCount          int        `json:"rowCount"`
	ExecMillis        float64    `json:"execMillis"`
	ExecError         string     `json:"execError,omitempty"`
	SuggestAnnotation bool       `json:"suggestAnnotation"`
}

// AnnotateParams is the v1 annotation body
// (POST /v1/queries/{id}/annotations); the query ID rides in the path.
type AnnotateParams struct {
	Text     string `json:"text"`
	Fragment string `json:"fragment,omitempty"`
}

// VisibilityParams is the v1 visibility body
// (PUT /v1/queries/{id}/visibility).
type VisibilityParams struct {
	Visibility string `json:"visibility"`
}

// SearchParams is the v1 search body (POST /v1/search/{kind}), covering the
// keyword, substring, meta-query, partial-query and query-by-data searches;
// exactly one payload field group is used per kind, plus pagination controls.
type SearchParams struct {
	Keywords  []string `json:"keywords,omitempty"`
	Substring string   `json:"substring,omitempty"`
	MetaSQL   string   `json:"metaSql,omitempty"`
	Partial   string   `json:"partial,omitempty"`
	Include   []string `json:"include,omitempty"`
	Exclude   []string `json:"exclude,omitempty"`
	K         int      `json:"k,omitempty"`
	SQL       string   `json:"sql,omitempty"`
	// Limit caps the page size (default 50, max 500); Cursor resumes a
	// previous listing. The response's nextCursor feeds the next request.
	Limit  int    `json:"limit,omitempty"`
	Cursor string `json:"cursor,omitempty"`
}

// QueryDTO is the wire representation of a logged query.
type QueryDTO struct {
	ID          int64     `json:"id"`
	Text        string    `json:"text"`
	User        string    `json:"user"`
	Group       string    `json:"group,omitempty"`
	IssuedAt    time.Time `json:"issuedAt"`
	Tables      []string  `json:"tables,omitempty"`
	ResultRows  int       `json:"resultRows"`
	ExecMillis  float64   `json:"execMillis"`
	SessionID   int64     `json:"sessionId,omitempty"`
	Valid       bool      `json:"valid"`
	Annotations []string  `json:"annotations,omitempty"`
	Quality     float64   `json:"quality,omitempty"`
}

// MatchDTO is one search result.
type MatchDTO struct {
	Query QueryDTO `json:"query"`
	Score float64  `json:"score"`
	Why   string   `json:"why,omitempty"`
}

// SearchResponse carries search results. NextCursor is set on paginated v1
// responses when another page exists; pass it back as the cursor to resume.
type SearchResponse struct {
	Matches    []MatchDTO `json:"matches"`
	NextCursor string     `json:"nextCursor,omitempty"`
}

// CompleteParams is the v1 assist body (POST /v1/assist/*).
type CompleteParams struct {
	Partial string `json:"partial"`
	K       int    `json:"k,omitempty"`
}

// CompletionDTO is one completion suggestion.
type CompletionDTO struct {
	Kind   string  `json:"kind"`
	Text   string  `json:"text"`
	Score  float64 `json:"score"`
	Reason string  `json:"reason,omitempty"`
}

// CorrectionDTO is one correction suggestion.
type CorrectionDTO struct {
	Kind       string  `json:"kind"`
	Original   string  `json:"original"`
	Suggestion string  `json:"suggestion"`
	Reason     string  `json:"reason,omitempty"`
	Confidence float64 `json:"confidence"`
}

// SimilarQueryDTO is one row of the Figure 3 similar-queries pane.
type SimilarQueryDTO struct {
	Query       QueryDTO `json:"query"`
	Score       float64  `json:"score"`
	Diff        string   `json:"diff"`
	Annotations []string `json:"annotations,omitempty"`
}

// AssistResponse bundles everything the assisted-interaction client pane
// needs.
type AssistResponse struct {
	Completions []CompletionDTO   `json:"completions,omitempty"`
	Corrections []CorrectionDTO   `json:"corrections,omitempty"`
	Similar     []SimilarQueryDTO `json:"similar,omitempty"`
}

// SessionDTO summarises one detected session.
type SessionDTO struct {
	ID         int64     `json:"id"`
	User       string    `json:"user"`
	QueryCount int       `json:"queryCount"`
	Start      time.Time `json:"start"`
	End        time.Time `json:"end"`
	Tables     []string  `json:"tables,omitempty"`
}

// SessionsResponse lists sessions. NextCursor is set on paginated v1
// responses when another page exists.
type SessionsResponse struct {
	Sessions   []SessionDTO `json:"sessions"`
	NextCursor string       `json:"nextCursor,omitempty"`
}

// TutorialStepDTO is one step of the generated data-set tutorial.
type TutorialStepDTO struct {
	Table   string   `json:"table"`
	Columns []string `json:"columns,omitempty"`
	Queries []string `json:"queries,omitempty"`
}

// GraphResponse carries the rendered Figure 2 session graph.
type GraphResponse struct {
	Graph string `json:"graph"`
}

// MaintainResponse summarises a maintenance scan.
type MaintainResponse struct {
	Checked        int      `json:"checked"`
	Invalidated    []string `json:"invalidated,omitempty"`
	Repaired       []string `json:"repaired,omitempty"`
	StatsRefreshed int      `json:"statsRefreshed"`
}

// MineResponse summarises a mining pass.
type MineResponse struct {
	// Transactions is how many logged queries with a non-empty feature set
	// the pass derived its rules over: the count /v1/stats reports as
	// minedTransactions.
	Transactions int `json:"transactions"`
	Rules        int `json:"rules"`
	Sessions     int `json:"sessions"`
}

// ItemCountDTO is one (item, count) pair of an aggregate listing.
type ItemCountDTO struct {
	Item  string `json:"item"`
	Count int    `json:"count"`
}

// StatsResponse reports server-wide counters. The queries, userCount,
// tableCount and sessions fields count the whole log regardless of visibility
// (counts only: a name would tell every caller about private queries); the
// remaining fields are read from the incrementally maintained stats subsystem
// and are principal-aware — a non-admin caller sees public queries merged with
// their own.
type StatsResponse struct {
	Queries    int `json:"queries"`
	UserCount  int `json:"userCount"`
	TableCount int `json:"tableCount"`
	Sessions   int `json:"sessions"`

	// VisibleQueries is how many logged queries the caller's counters cover.
	VisibleQueries int `json:"visibleQueries"`
	// TableCounts are per-table reference counts visible to the caller,
	// sorted by descending count.
	TableCounts []ItemCountDTO `json:"tableCounts,omitempty"`
	// UserActivity is per-user query counts visible to the caller, sorted by
	// descending count.
	UserActivity []ItemCountDTO `json:"userActivity,omitempty"`
	// TopPredicates are the most used concrete predicates visible to the
	// caller, sorted by descending count (capped).
	TopPredicates []ItemCountDTO `json:"topPredicates,omitempty"`
	// Approx describes the approximation contract of the listings above.
	// They are served from bounded per-bucket top-K summaries: every count
	// reported is exact, but a listing may omit items whose true count is at
	// or below the corresponding bound. A zero bound means that listing is
	// complete for the caller.
	Approx *StatsApproxDTO `json:"approx,omitempty"`
	// MinedTransactions is how many logged queries with a non-empty feature
	// set the association-rule feed counts.
	MinedTransactions int `json:"minedTransactions"`
	// Status is the shared status document (role, applied sequence, uptime)
	// every status surface embeds.
	Status StatusDocDTO `json:"status"`
}

// StatusDocDTO is the status-document shape shared by every status surface:
// /v1/stats, /v1/replication/status and the capture proxy's /v1/proxy/status
// all report the same core fields, so operators and cqmsctl read one shape
// everywhere.
type StatusDocDTO struct {
	// Role is this process's place in the topology: "primary", "follower" or
	// "proxy".
	Role string `json:"role"`
	// AppliedSeq is the highest WAL sequence applied locally: appended on a
	// primary, replicated on a follower, 0 when durability is off.
	AppliedSeq uint64 `json:"appliedSeq"`
	// UptimeSeconds is how long this process has been serving.
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// ReplicationStatusResponse reports a process's replication position
// (GET /v1/replication/status): the shared status document plus the
// stream-position fields. On a primary only the sequences are meaningful; on
// a follower the lag and staleness fields bound how far behind its reads are.
type ReplicationStatusResponse struct {
	StatusDocDTO
	// Primary is the upstream base URL (followers only).
	Primary string `json:"primary,omitempty"`
	// PrimarySeq is the primary's last sequence as this process knows it
	// (equal to appliedSeq on the primary itself).
	PrimarySeq uint64 `json:"primarySeq"`
	// SnapshotSeq is the sequence the newest snapshot covers (the bootstrap
	// snapshot on a follower).
	SnapshotSeq uint64 `json:"snapshotSeq"`
	// LagRecords is max(primarySeq-appliedSeq, 0).
	LagRecords uint64 `json:"lagRecords"`
	// LagSeconds is 0 when caught up, otherwise seconds since the follower
	// last was; -1 before the first catch-up. Always 0 on a primary.
	LagSeconds float64 `json:"lagSeconds"`
	// StalenessSeconds bounds how far behind the primary a read served now
	// can be: seconds since the follower last knew it had everything the
	// primary reported (-1 before the first catch-up, 0 on a primary).
	StalenessSeconds float64 `json:"stalenessSeconds"`
	// LastError is the apply loop's most recent failure ("" when healthy).
	LastError string `json:"lastError,omitempty"`
}

// StatsApproxDTO reports the error bounds of the bounded stats listings:
// per dimension, the count threshold under which an item may be missing from
// the caller's listing (counts that ARE listed are always exact). Capacity
// is the per-bucket per-dimension summary size in effect.
type StatsApproxDTO struct {
	Capacity         int `json:"capacity"`
	TableBound       int `json:"tableBound"`
	UserBound        int `json:"userBound"`
	PredicateBound   int `json:"predicateBound"`
	FingerprintBound int `json:"fingerprintBound"`
}

// LogSegmentDTO describes one on-disk WAL segment.
type LogSegmentDTO struct {
	Name     string `json:"name"`
	FirstSeq uint64 `json:"firstSeq"`
	Bytes    int64  `json:"bytes"`
}

// SnapshotDTO describes one snapshot file: the log sequence it covers, its
// size, and how many records and frames (header and chunks) it holds. Error
// replaces the counts for a file that does not read back. Every file is in
// this build's format: a primary upgrades a directory an older build wrote
// when it opens it, before it serves, and a follower of an older primary is
// refused by name (storage.ErrOlderFormat), so the primary is upgraded
// first and followers bootstrap from it again.
type SnapshotDTO struct {
	Name    string `json:"name"`
	Seq     uint64 `json:"seq"`
	Bytes   int64  `json:"bytes,omitempty"`
	Records int    `json:"records"`
	Frames  int    `json:"frames"`
	Error   string `json:"error,omitempty"`
}

// LogInfoResponse reports the durable query-log state.
type LogInfoResponse struct {
	Enabled              bool            `json:"enabled"`
	Dir                  string          `json:"dir,omitempty"`
	SyncPolicy           string          `json:"syncPolicy,omitempty"`
	LastSeq              uint64          `json:"lastSeq,omitempty"`
	SnapshotSeq          uint64          `json:"snapshotSeq,omitempty"`
	AppendsSinceSnapshot int64           `json:"appendsSinceSnapshot,omitempty"`
	Segments             []LogSegmentDTO `json:"segments,omitempty"`
	// PayloadFormat is the version of the binary payload format every WAL
	// frame and snapshot frame in the directory is written in.
	PayloadFormat int `json:"payloadFormat,omitempty"`
	// Snapshots lists the snapshot files on disk, oldest first; recovery
	// loads the last one.
	Snapshots []SnapshotDTO `json:"snapshots,omitempty"`
	// AppendError is set when the durability pipeline has failed: mutations
	// after it are acknowledged but not durable.
	AppendError string `json:"appendError,omitempty"`
}

// LogSnapshotResponse reports a snapshot (backup) or compaction run.
type LogSnapshotResponse struct {
	Path            string `json:"path"`
	Seq             uint64 `json:"seq"`
	RemovedSegments int    `json:"removedSegments,omitempty"`
}

// parseVisibility maps the wire value onto the storage constant, defaulting
// to group visibility.
func parseVisibility(s string) storage.Visibility {
	switch s {
	case "private":
		return storage.VisibilityPrivate
	case "public":
		return storage.VisibilityPublic
	default:
		return storage.VisibilityGroup
	}
}

// queryDTO renders a logged query. Its session comes from the live detector,
// so it is current as of the last commit.
func (s *Server) queryDTO(rec *storage.QueryRecord) QueryDTO {
	var anns []string
	for _, a := range rec.Annotations {
		anns = append(anns, a.Text)
	}
	return QueryDTO{
		ID:          int64(rec.ID),
		Text:        rec.Text,
		User:        rec.User,
		Group:       rec.Group,
		IssuedAt:    rec.IssuedAt,
		Tables:      rec.Tables,
		ResultRows:  rec.Stats.ResultRows,
		ExecMillis:  float64(rec.Stats.ExecTime.Microseconds()) / 1000.0,
		SessionID:   s.cqms.SessionOf(rec),
		Valid:       rec.Valid,
		Annotations: anns,
		Quality:     rec.Quality(),
	}
}
