package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/metaquery"
	"repro/internal/profiler"
	"repro/internal/storage"
)

// This file holds the /v1/ handlers. Conventions shared by all of them:
//
//   - the principal comes from the X-CQMS-* headers (HeaderPrincipal
//     middleware), never from bodies or query parameters;
//   - every failure is an error envelope ({error: {code, message, details}})
//     with a machine-readable code;
//   - list endpoints take limit + an opaque cursor and never return
//     unbounded arrays; paginating to exhaustion yields the membership of
//     the snapshot observed on the first page (no duplicates or gaps under
//     concurrent inserts);
//   - the request context is threaded into every core call, so a client
//     disconnect aborts in-flight scans.

// ---------------------------------------------------------------------------
// Traditional mode: submit, batch submit, fetch, annotate
// ---------------------------------------------------------------------------

func (s *Server) handleV1Submit(w http.ResponseWriter, r *http.Request) {
	var req SubmitParams
	if err := decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		writeError(w, Errorf(CodeInvalidArgument, "sql is required"))
		return
	}
	if err := r.Context().Err(); err != nil {
		writeError(w, err)
		return
	}
	out, err := s.cqms.Submit(submission(PrincipalFrom(r.Context()), req))
	if err != nil {
		writeError(w, asInvalidArgument(err))
		return
	}
	writeJSON(w, http.StatusOK, submitResponse(out))
}

// submission is the one place a submit request becomes what the profiler
// takes: the group defaults to the principal's first, the visibility spelling
// is parsed.
func submission(p storage.Principal, q SubmitParams) profiler.Submission {
	group := q.Group
	if group == "" && len(p.Groups) > 0 {
		group = p.Groups[0]
	}
	return profiler.Submission{
		User:       p.User,
		Group:      group,
		Visibility: parseVisibility(q.Visibility),
		SQL:        q.SQL,
	}
}

func (s *Server) handleV1SubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSubmitRequest
	if err := decodeCapped(w, r, &req, maxBatchBodyBytes); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, Errorf(CodeInvalidArgument, "queries is required"))
		return
	}
	if len(req.Queries) > MaxBatchQueries {
		writeError(w, Errorf(CodeInvalidArgument,
			"batch holds %d queries, the maximum is %d", len(req.Queries), MaxBatchQueries))
		return
	}
	p := PrincipalFrom(r.Context())
	subs := make([]profiler.Submission, len(req.Queries))
	for i, q := range req.Queries {
		subs[i] = submission(p, q)
	}
	outs, errs, err := s.cqms.SubmitBatch(r.Context(), subs)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := BatchSubmitResponse{Results: make([]BatchItemResult, len(subs))}
	for i := range subs {
		if errs[i] != nil {
			resp.Results[i].Error = coerceAPIError(asInvalidArgument(errs[i]))
			continue
		}
		item := submitResponse(outs[i])
		resp.Results[i].Result = &item
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleV1GetQuery(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, err)
		return
	}
	rec, err := s.cqms.GetQuery(r.Context(), PrincipalFrom(r.Context()), storage.QueryID(id))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.queryDTO(rec))
}

func (s *Server) handleV1DeleteQuery(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := s.cqms.DeleteQuery(storage.QueryID(id), PrincipalFrom(r.Context())); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleV1Annotate(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var req AnnotateParams
	if err := decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := r.Context().Err(); err != nil {
		writeError(w, err)
		return
	}
	p := PrincipalFrom(r.Context())
	err = s.cqms.Annotate(storage.QueryID(id), p, storage.Annotation{
		Author: p.User, Text: req.Text, Fragment: req.Fragment,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleV1Visibility(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var req VisibilityParams
	if err := decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	err = s.cqms.SetVisibility(storage.QueryID(id), PrincipalFrom(r.Context()), parseVisibility(req.Visibility))
	if err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---------------------------------------------------------------------------
// Search & browse: paginated searches, history, sessions
// ---------------------------------------------------------------------------

// handleV1Search serves one search kind with cursor pagination. The first
// page pins the store's high-water mark in the cursor; later pages resume
// strictly after the last (score, id) position returned, inside that
// membership (metaquery.Executor.Page).
func (s *Server) handleV1Search(kind string) http.HandlerFunc {
	cursorKind := "search:" + kind
	return func(w http.ResponseWriter, r *http.Request) {
		var req SearchParams
		if err := decode(w, r, &req); err != nil {
			writeError(w, err)
			return
		}
		cur, err := decodePageCursor(req.Cursor, cursorKind)
		if err != nil {
			writeError(w, err)
			return
		}
		q, err := searchQuery(kind, req)
		if err != nil {
			writeError(w, asInvalidArgument(err))
			return
		}
		// One match more than the page holds says whether another page exists.
		limit := effectiveLimit(req.Limit)
		page, err := s.cqms.SearchPage(r.Context(), PrincipalFrom(r.Context()), q, cur.position(), limit+1)
		if err != nil {
			writeError(w, asInvalidArgument(err))
			return
		}
		next := ""
		if len(page.Matches) > limit {
			page.Matches = page.Matches[:limit]
			next = cur.next(page)
		}
		writeJSON(w, http.StatusOK, SearchResponse{Matches: s.matchesToDTO(page.Matches), NextCursor: next})
	}
}

// searchQuery is the one place a search request becomes a metaquery.Query:
// the route names the kind, the kind's constructor holds its input rule.
func searchQuery(kind string, req SearchParams) (metaquery.Query, error) {
	switch kind {
	case "keyword":
		return metaquery.Keywords(req.Keywords...)
	case "substring":
		return metaquery.Substring(req.Substring)
	case "metaquery":
		return metaquery.Feature(req.MetaSQL), nil
	case "partial":
		return metaquery.Partial(req.Partial)
	case "bydata":
		return metaquery.ByData(req.Include, req.Exclude)
	case "similar":
		probe, err := storage.NewRecordFromSQL(req.SQL)
		if err != nil {
			return metaquery.Query{}, err
		}
		return metaquery.Similar(probe, req.K), nil
	}
	return metaquery.Query{}, Errorf(CodeInternal, "unknown search kind %q", kind)
}

func (s *Server) handleV1History(w http.ResponseWriter, r *http.Request) {
	p := PrincipalFrom(r.Context())
	user := r.URL.Query().Get("of")
	if user == "" {
		user = p.User
	}
	limit, err := queryLimit(r)
	if err != nil {
		writeError(w, err)
		return
	}
	cur, err := decodePageCursor(r.URL.Query().Get("cursor"), "history")
	if err != nil {
		writeError(w, err)
		return
	}
	// Fetch one extra record to learn whether another page exists.
	records, nextCur, err := s.cqms.HistoryPage(r.Context(), p, user, core.HistoryCursor{
		At: storage.QueryID(cur.High), After: storage.QueryID(cur.After),
	}, limit+1)
	if err != nil {
		writeError(w, err)
		return
	}
	next := ""
	if len(records) > limit {
		records = records[:limit]
		next = pageCursor{Kind: "history", High: int64(nextCur.At), After: int64(records[limit-1].ID)}.encode()
	}
	matches := make([]MatchDTO, 0, len(records))
	for _, rec := range records {
		matches = append(matches, MatchDTO{Query: s.queryDTO(rec), Score: 1})
	}
	writeJSON(w, http.StatusOK, SearchResponse{Matches: matches, NextCursor: next})
}

func (s *Server) handleV1Sessions(w http.ResponseWriter, r *http.Request) {
	limit, err := queryLimit(r)
	if err != nil {
		writeError(w, err)
		return
	}
	cur, err := decodePageCursor(r.URL.Query().Get("cursor"), "sessions")
	if err != nil {
		writeError(w, err)
		return
	}
	summaries, err := s.cqms.SessionsPage(r.Context(), PrincipalFrom(r.Context()), cur.After, limit+1)
	if err != nil {
		writeError(w, err)
		return
	}
	next := ""
	if len(summaries) > limit {
		summaries = summaries[:limit]
		next = pageCursor{Kind: "sessions", After: summaries[limit-1].ID}.encode()
	}
	writeJSON(w, http.StatusOK, SessionsResponse{Sessions: s.sessionDTOs(summaries), NextCursor: next})
}

func (s *Server) handleV1SessionGraph(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, err)
		return
	}
	graph, err := s.cqms.SessionGraph(r.Context(), PrincipalFrom(r.Context()), id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, GraphResponse{Graph: graph})
}

// queryLimit parses the limit query parameter, applying the default and max.
func queryLimit(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return defaultPageLimit, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, Errorf(CodeInvalidArgument, "invalid limit %q", raw)
	}
	return effectiveLimit(n), nil
}

// ---------------------------------------------------------------------------
// Assisted mode
// ---------------------------------------------------------------------------

func (s *Server) handleV1Complete(w http.ResponseWriter, r *http.Request) {
	var req CompleteParams
	if err := decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	completions, err := s.cqms.Complete(r.Context(), PrincipalFrom(r.Context()), req.Partial, boundedK(req.K))
	if err != nil {
		writeError(w, err)
		return
	}
	resp := AssistResponse{}
	for _, c := range completions {
		resp.Completions = append(resp.Completions, CompletionDTO{
			Kind: c.Kind.String(), Text: c.Text, Score: c.Score, Reason: c.Reason,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleV1Corrections(w http.ResponseWriter, r *http.Request) {
	var req CompleteParams
	if err := decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	corrections, err := s.cqms.Corrections(r.Context(), PrincipalFrom(r.Context()), req.Partial)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := AssistResponse{}
	for _, c := range corrections {
		resp.Corrections = append(resp.Corrections, CorrectionDTO{
			Kind: c.Kind, Original: c.Original, Suggestion: c.Suggestion,
			Reason: c.Reason, Confidence: c.Confidence,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleV1SimilarQueries(w http.ResponseWriter, r *http.Request) {
	var req CompleteParams
	if err := decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	similar, err := s.cqms.SimilarQueries(r.Context(), PrincipalFrom(r.Context()), req.Partial, boundedK(req.K))
	if err != nil {
		writeError(w, asInvalidArgument(err))
		return
	}
	resp := AssistResponse{}
	for _, sim := range similar {
		resp.Similar = append(resp.Similar, SimilarQueryDTO{
			Query: s.queryDTO(sim.Record), Score: sim.Score, Diff: sim.Diff, Annotations: sim.Annotations,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleV1Tutorial(w http.ResponseWriter, r *http.Request) {
	perTable := 3
	if raw := r.URL.Query().Get("per_table"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			writeError(w, Errorf(CodeInvalidArgument, "invalid per_table %q", raw))
			return
		}
		perTable = boundedK(n)
	}
	steps, err := s.cqms.Tutorial(r.Context(), PrincipalFrom(r.Context()), perTable)
	if err != nil {
		writeError(w, err)
		return
	}
	out := make([]TutorialStepDTO, 0, len(steps))
	for _, step := range steps {
		dto := TutorialStepDTO{Table: step.Table, Columns: step.Columns}
		for _, q := range step.PopularQueries {
			dto.Queries = append(dto.Queries, q.Canonical)
		}
		out = append(out, dto)
	}
	writeJSON(w, http.StatusOK, out)
}

// boundedK clamps suggestion counts so assist responses stay bounded like
// every other list payload.
func boundedK(k int) int {
	if k > maxPageLimit {
		return maxPageLimit
	}
	return k
}

// ---------------------------------------------------------------------------
// Administrative mode
// ---------------------------------------------------------------------------

func (s *Server) handleV1Mine(w http.ResponseWriter, r *http.Request) {
	res := s.cqms.RunMiner()
	writeJSON(w, http.StatusOK, MineResponse{
		Transactions: res.TransactionCount,
		Rules:        len(res.Rules),
		Sessions:     s.cqms.SessionCount(),
	})
}

func (s *Server) handleV1Maintain(w http.ResponseWriter, r *http.Request) {
	report, err := s.cqms.RunMaintenance()
	if err != nil {
		writeError(w, err)
		return
	}
	resp := MaintainResponse{Checked: report.Checked, StatsRefreshed: len(report.StatsRefreshed)}
	for _, inv := range report.Invalidated {
		resp.Invalidated = append(resp.Invalidated, fmt.Sprintf("q%d: %s", inv.ID, inv.Reason))
	}
	for _, rep := range report.Repaired {
		resp.Repaired = append(resp.Repaired, fmt.Sprintf("q%d: %s", rep.ID, rep.Change))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleV1LogInfo(w http.ResponseWriter, r *http.Request) {
	mgr := s.cqms.Durability()
	if mgr == nil {
		writeJSON(w, http.StatusOK, LogInfoResponse{Enabled: false})
		return
	}
	info, err := mgr.Info()
	if err != nil {
		writeError(w, err)
		return
	}
	resp := LogInfoResponse{
		Enabled:              true,
		Dir:                  info.Dir,
		SyncPolicy:           info.SyncPolicy,
		LastSeq:              info.LastSeq,
		SnapshotSeq:          info.SnapshotSeq,
		AppendsSinceSnapshot: info.AppendsSinceSnapshot,
		AppendError:          info.AppendError,
		PayloadFormat:        info.PayloadFormat,
	}
	for _, seg := range info.Segments {
		resp.Segments = append(resp.Segments, LogSegmentDTO{
			Name: seg.Name, FirstSeq: seg.FirstSeq, Bytes: seg.Bytes,
		})
	}
	for i, snap := range info.Snapshots {
		resp.Snapshots = append(resp.Snapshots, SnapshotDTO{
			Name: snap.Name, Seq: snap.Seq, Bytes: snap.Bytes,
			Records: snap.Records, Frames: snap.Frames, Error: snap.Error,
		})
		if i == len(info.Snapshots)-1 {
			for _, sc := range snap.Sidecars {
				resp.SnapshotSidecars = append(resp.SnapshotSidecars, SidecarDTO{
					Name: sc.Name, Version: sc.Version, Bytes: sc.Bytes,
				})
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleV1LogSnapshot(w http.ResponseWriter, r *http.Request) {
	mgr := s.cqms.Durability()
	if mgr == nil {
		writeError(w, Errorf(CodeUnavailable, "durability is disabled (start the server with -data-dir)"))
		return
	}
	path, seq, err := mgr.Snapshot()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, LogSnapshotResponse{Path: path, Seq: seq})
}

func (s *Server) handleV1LogCompact(w http.ResponseWriter, r *http.Request) {
	mgr := s.cqms.Durability()
	if mgr == nil {
		writeError(w, Errorf(CodeUnavailable, "durability is disabled (start the server with -data-dir)"))
		return
	}
	path, seq, removed, err := mgr.Compact()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, LogSnapshotResponse{Path: path, Seq: seq, RemovedSegments: removed})
}

// maxStatsItems caps each aggregate listing in the stats response, keeping
// the payload bounded like every other list endpoint.
const maxStatsItems = 20

// statusDoc builds the status document every status surface shares: role,
// applied WAL sequence, uptime and derived-state provenance (sorted by name
// for a stable wire order).
func (s *Server) statusDoc() StatusDocDTO {
	doc := StatusDocDTO{
		Role:          s.cqms.Role(),
		AppliedSeq:    s.cqms.ReplicationStatus().AppliedSeq,
		UptimeSeconds: s.cqms.Uptime().Seconds(),
	}
	prov := s.cqms.DerivedStateProvenance()
	names := make([]string, 0, len(prov))
	for name := range prov {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		doc.Provenance = append(doc.Provenance, DerivedStateDTO{Name: name, Source: prov[name]})
	}
	return doc
}

func (s *Server) handleV1Stats(w http.ResponseWriter, r *http.Request) {
	p := PrincipalFrom(r.Context())
	store, t := s.cqms.Store(), s.cqms.StatsTracker()
	users, tables := store.DistinctCounts()
	resp := StatsResponse{
		Queries:           store.Count(),
		UserCount:         users,
		TableCount:        tables,
		Sessions:          s.cqms.SessionCount(),
		VisibleQueries:    t.QueryCount(p),
		MinedTransactions: s.cqms.MinerFeed().NumTransactions(),
		Status:            s.statusDoc(),
	}
	// Every listing below is served from the tracker's bounded top-K
	// summaries: O(summary capacity), flat in log and user-population size.
	// resp.Approx carries the listings' error bounds.
	for i, tc := range t.TableCounts(p) {
		if i >= maxStatsItems {
			break
		}
		resp.TableCounts = append(resp.TableCounts, ItemCountDTO{Item: tc.Table, Count: tc.Count})
	}
	for i, ua := range t.UserActivity(p) {
		if i >= maxStatsItems {
			break
		}
		resp.UserActivity = append(resp.UserActivity, ItemCountDTO{Item: ua.User, Count: ua.Queries})
	}
	for _, tp := range t.TopPredicates(p, maxStatsItems) {
		resp.TopPredicates = append(resp.TopPredicates, ItemCountDTO{Item: tp.Item, Count: tp.Count})
	}
	bounds := t.Bounds(p)
	resp.Approx = &StatsApproxDTO{
		Capacity:         bounds.Capacity,
		TableBound:       bounds.Tables,
		UserBound:        bounds.Users,
		PredicateBound:   bounds.Predicates,
		FingerprintBound: bounds.Fingerprints,
	}
	writeJSON(w, http.StatusOK, resp)
}
