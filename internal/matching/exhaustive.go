package matching

import "context"

// Exhaustive is the original system S1: it enumerates every mapping of
// the search space with ∆ ≤ δ. Pruning is admissible only (a partial
// cost already above δ can never shrink because every contribution of
// ∆ is non-negative), so the answer set is provably complete —
// exhaustiveness is what the bounds technique assumes about S1.
//
// All node-pair scores come from the Problem's cost tables, which are
// built from the problem's engine.Scorer — the matcher never invokes a
// string metric itself, so every system sharing the Problem (and every
// Problem sharing a memoized scorer) scores pairs identically.
type Exhaustive struct{}

// Name implements Matcher.
func (Exhaustive) Name() string { return "exhaustive" }

// Match implements Matcher.
func (Exhaustive) Match(p *Problem, delta float64) (*AnswerSet, error) {
	return Exhaustive{}.MatchContext(context.Background(), p, delta)
}

// MatchContext implements Matcher: the enumeration checks ctx
// periodically and returns ctx.Err() when cancelled mid-search.
func (Exhaustive) MatchContext(ctx context.Context, p *Problem, delta float64) (*AnswerSet, error) {
	set, _, err := Exhaustive{}.MatchStatsContext(ctx, p, delta)
	return set, err
}

// MatchWithStats runs the exhaustive system and reports the search
// work alongside the answers.
func (Exhaustive) MatchWithStats(p *Problem, delta float64) (*AnswerSet, SearchStats, error) {
	return Exhaustive{}.MatchStatsContext(context.Background(), p, delta)
}

// MatchStatsContext implements StatsMatcher.
func (Exhaustive) MatchStatsContext(ctx context.Context, p *Problem, delta float64) (*AnswerSet, SearchStats, error) {
	return MatchPolicy(ctx, p, delta, nil)
}
