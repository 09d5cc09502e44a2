// Package cqms is the public facade of this repository's Collaborative Query
// Management System, a reproduction of "A Case for A Collaborative Query
// Management System" (Khoussainova et al., CIDR 2009).
//
// The system is organised exactly like Figure 4 of the paper: a CQMS server
// made of a Query Profiler, a Query Storage, a Meta-query Executor, a Query
// Miner and a Query Maintenance component, sitting on top of an embedded
// relational engine, with an HTTP client/server layer on top. This package
// re-exports the types that downstream code (the examples, the command-line
// tools and the benchmark harness) uses, so that a single import gives access
// to the whole system:
//
//	sys := cqms.New(cqms.DefaultConfig())
//	out, err := sys.Submit(cqms.Submission{User: "alice", SQL: "SELECT ..."})
//	matches, err := sys.Search(ctx, cqms.Principal{User: "alice"}, "salinity")
//
// See the examples/ directory for complete programs covering the four
// interaction modes of the paper.
package cqms

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/maintenance"
	"repro/internal/metaquery"
	"repro/internal/miner"
	"repro/internal/profiler"
	"repro/internal/recommend"
	"repro/internal/session"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/workload"
)

// CQMS is the collaborative query management system (see internal/core).
type CQMS = core.CQMS

// Config holds the settings a caller chooses (see core.Config).
type Config = core.Config

// Submission is one user query entering the system in Traditional mode.
type Submission = profiler.Submission

// Outcome is what Submit returns: the statement's Answer (Result), the
// logged query ID and hints.
type Outcome = profiler.Outcome

// Answer is what a submitted statement answered: its columns, its first
// profiler.MaxInlineRows rows rendered (read-only: they may be shared with
// later answers), its cardinality and the engine time of the execution that
// produced it. A SELECT repeated over unchanged data is answered from the
// profiler's memo, with the first execution's time.
type Answer = profiler.Answer

// Principal identifies a user for access-control purposes.
type Principal = storage.Principal

// QueryID identifies a logged query.
type QueryID = storage.QueryID

// QueryRecord is the stored representation of a logged query.
type QueryRecord = storage.QueryRecord

// Annotation is a user note attached to a logged query.
type Annotation = storage.Annotation

// Visibility controls who can see a logged query.
type Visibility = storage.Visibility

// Visibility levels.
const (
	VisibilityPrivate = storage.VisibilityPrivate
	VisibilityGroup   = storage.VisibilityGroup
	VisibilityPublic  = storage.VisibilityPublic
)

// Match is one meta-query / search result.
type Match = metaquery.Match

// Completion is one assisted-interaction completion suggestion.
type Completion = recommend.Completion

// Correction is one assisted-interaction correction suggestion.
type Correction = recommend.Correction

// SimilarQuery is one row of the Figure 3 similar-queries pane.
type SimilarQuery = recommend.SimilarQuery

// TutorialStep is one step of the auto-generated data-set tutorial.
type TutorialStep = recommend.TutorialStep

// SessionSummary summarises one detected query session.
type SessionSummary = session.Summary

// MiningResult is the output of a background mining pass.
type MiningResult = miner.Result

// StatsTracker holds the incrementally maintained, visibility-aware query-log
// aggregates (see CQMS.StatsTracker).
type StatsTracker = stats.Tracker

// MaintenanceReport summarises a maintenance scan.
type MaintenanceReport = maintenance.Report

// Engine is the embedded relational engine the CQMS sits on.
type Engine = engine.Engine

// DurabilityConfig configures the durable query log (Config.Durability).
type DurabilityConfig = wal.Config

// RecoveryInfo reports what Open reconstructed from disk.
type RecoveryInfo = wal.RecoveryInfo

// DefaultDurabilityConfig returns the default durable-log settings for a
// data directory.
func DefaultDurabilityConfig(dir string) DurabilityConfig { return wal.DefaultConfig(dir) }

// New creates a CQMS over a fresh embedded engine.
func New(cfg Config) *CQMS { return core.New(cfg) }

// Open creates a CQMS and, when cfg.Durability.Dir is set, recovers the query
// log from disk and keeps it durable. Call Close to flush on shutdown.
func Open(cfg Config) (*CQMS, error) { return core.Open(cfg) }

// OpenWithEngine is Open over an existing (already populated) engine.
func OpenWithEngine(eng *Engine, cfg Config) (*CQMS, error) {
	return core.OpenWithEngine(eng, cfg)
}

// NewWithEngine creates a CQMS over an existing (already populated) engine.
func NewWithEngine(eng *Engine, cfg Config) *CQMS { return core.NewWithEngine(eng, cfg) }

// DefaultConfig returns the default settings.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewEngine returns a fresh embedded relational engine.
func NewEngine() *Engine { return engine.New() }

// PopulateScientificDB creates the synthetic scientific schema (the paper's
// lakes example plus an astronomy topic) and fills it with rowsPerTable rows
// per measurement table. It is the data substrate used by the examples and
// benchmarks.
func PopulateScientificDB(eng *Engine, rowsPerTable int, seed int64) error {
	return workload.Populate(eng, rowsPerTable, seed)
}

// Admin is the administrative principal that bypasses visibility checks.
var Admin = storage.Principal{Admin: true}
