package matching

import (
	"context"
	"fmt"

	"repro/internal/engine"
)

// ParallelExhaustive is the exhaustive system S1 with the per-schema
// enumeration fanned out over worker goroutines. It produces exactly
// the same answer set as Exhaustive (the per-schema enumerations are
// independent and NewAnswerSet orders deterministically); only the
// wall-clock changes. Workers defaults to GOMAXPROCS when ≤ 0.
type ParallelExhaustive struct {
	// Workers bounds the number of concurrent schema enumerations.
	Workers int
}

// Name implements Matcher: "parallel", or "parallel:N" when a worker
// bound is set.
func (p ParallelExhaustive) Name() string {
	if p.Workers > 0 {
		return fmt.Sprintf("parallel:%d", p.Workers)
	}
	return "parallel"
}

// Match implements Matcher.
func (p ParallelExhaustive) Match(prob *Problem, delta float64) (*AnswerSet, error) {
	return p.MatchContext(context.Background(), prob, delta)
}

// MatchContext implements Matcher: on cancellation every worker unwinds
// its enumeration at the next periodic check and skips the schemas it
// still claims at their entry check; the call returns ctx.Err() once
// all workers have exited — no worker goroutine outlives the call.
func (p ParallelExhaustive) MatchContext(ctx context.Context, prob *Problem, delta float64) (*AnswerSet, error) {
	set, _, err := p.MatchStatsContext(ctx, prob, delta)
	return set, err
}

// MatchStatsContext implements StatsMatcher, summing the search work
// across workers.
func (p ParallelExhaustive) MatchStatsContext(ctx context.Context, prob *Problem, delta float64) (*AnswerSet, SearchStats, error) {
	schemas := prob.Repo.Schemas()
	workers := engine.ResolveWorkers(p.Workers, len(schemas))
	cols := make([]Collector, workers)
	stats := make([]SearchStats, workers)
	engine.ForEachWorker(len(schemas), workers, func(w, i int) {
		st, _ := Enumerate(ctx, prob, schemas[i], delta, nil, cols[w].Add)
		stats[w].Add(st)
	})
	var answers []Answer
	var total SearchStats
	for w := range cols {
		answers = append(answers, cols[w].Answers()...)
		total.Add(stats[w])
	}
	if err := ctx.Err(); err != nil {
		return nil, total, err
	}
	// Every schema went to exactly one worker, so the merged answers
	// are distinct and only need the canonical order.
	return sortedSet(answers), total, nil
}
