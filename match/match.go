package match

import (
	"time"

	"repro/internal/bounds"
	"repro/internal/engine"
	"repro/internal/matching"
	"repro/internal/xmlschema"
)

// Request is one matching query against the service's repository.
type Request struct {
	// Personal is the personal (query) schema to match. Required.
	// Requests reusing the same *Schema value hit the service's
	// per-schema session cache (cost tables, baseline answers);
	// distinct pointers are distinct sessions even if structurally
	// equal.
	Personal *xmlschema.Schema
	// Delta is the answer threshold δ: every mapping with ∆ ≤ Delta
	// that the selected system finds is returned.
	Delta float64
	// Matcher is a registry spec selecting the system ("exhaustive",
	// "parallel", "beam:8", "topk:0.05", "clustered:3" — see Parse).
	// Empty selects the service's baseline system.
	Matcher string
	// System, when non-nil, overrides Matcher with a caller-supplied
	// matcher instance (for systems outside the registry). The system
	// must share the service's objective function for bounds to be
	// valid; the service verifies answer-set containment when it can.
	System matching.Matcher
	// Limit truncates Result.Answers to the best N mappings (0 = all).
	// The full set remains available as Result.Set.
	Limit int
}

// Result is the outcome of one Service.Match call.
type Result struct {
	// Answers are the best mappings in rank order (score ascending,
	// ties broken deterministically), truncated to Request.Limit.
	Answers []matching.Answer
	// Set is the complete answer set of the run.
	Set *matching.AnswerSet
	// Stats quantifies the work this request performed.
	Stats Stats
	// Bounds carries the guaranteed effectiveness bounds of the
	// request's system, per service threshold ≤ Request.Delta. It is
	// non-nil only when the request selected a non-exhaustive system
	// and the service has a baseline effectiveness source (WithTruth
	// or WithBaselineCurve); see the package documentation.
	Bounds bounds.Curve
}

// Stats quantifies one request's work: wall-clock, search counters,
// and the scoring-engine cache traffic the request generated.
type Stats struct {
	// Matcher is the canonical spec of the system that ran.
	Matcher string
	// Wall is the end-to-end search time (excluding session
	// construction such as cost-table builds on first use).
	Wall time.Duration
	// Search counts the work of the run's enumeration. Zero when the
	// system does not implement matching.StatsMatcher.
	Search matching.SearchStats
	// Cache is the scoring-engine traffic during the request (hits,
	// misses, and new entries). Under concurrent requests sharing one
	// engine the attribution is approximate — concurrent traffic
	// blends into whichever requests are in flight.
	Cache engine.Stats
	// Candidates carries the candidate-pruning telemetry — pairs
	// bounded instead of scored, schemas skipped outright, and the
	// bound floor — when the request was served by a candidate-filtered
	// problem (WithCandidateIndex, request delta within the horizon).
	// Nil otherwise, including requests above the horizon, which the
	// service routes to an unfiltered problem.
	Candidates *matching.CandidateStats
	// Answers is the total answer count before Limit truncation.
	Answers int
	// QueueWait is the time the request spent between Server admission
	// and execution start. Zero for direct Service calls, which do not
	// pass through the server queue.
	QueueWait time.Duration
	// SessionBuild is the time spent obtaining this request's problem:
	// session lookup plus — on a cold session — cost-table construction.
	// Near zero on warm sessions.
	SessionBuild time.Duration
	// BaselineWait is the time spent waiting on the baseline
	// effectiveness curve (exhaustive singleflight build or cached
	// lookup) to produce Result.Bounds. Zero when no bounds were
	// requested or available.
	BaselineWait time.Duration
}
