// Package beam implements the beam-search non-exhaustive matcher — the
// iMap-style improvement the paper cites (Dhamankar et al., SIGMOD
// 2004) as a canonical example of a system that improves efficiency
// without changing the objective function.
//
// The matcher assigns personal-schema elements level by level, keeping
// only the Width best partial mappings per repository schema after each
// level. Scores of surviving complete mappings are identical to the
// exhaustive system's (the same cost contributions accumulate); the
// search merely discards partial states, so the answer set is a subset
// of the exhaustive one — the containment the effectiveness bounds
// technique requires. All scores are drawn from the Problem's
// engine.Scorer-built cost tables, never from a string metric directly.
package beam

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/matching"
	"repro/internal/xmlschema"
)

// Matcher is the beam-search system. The zero value is invalid; use New.
type Matcher struct {
	width int
}

// New returns a beam matcher keeping width partial states per level.
// It returns an error for width < 1.
func New(width int) (*Matcher, error) {
	if width < 1 {
		return nil, fmt.Errorf("beam: width %d < 1", width)
	}
	return &Matcher{width: width}, nil
}

// Name implements matching.Matcher: the canonical registry spec
// ("beam:8").
func (b *Matcher) Name() string { return fmt.Sprintf("beam:%d", b.width) }

// Width returns the beam width.
func (b *Matcher) Width() int { return b.width }

// Match implements matching.Matcher.
func (b *Matcher) Match(p *matching.Problem, delta float64) (*matching.AnswerSet, error) {
	return b.MatchContext(context.Background(), p, delta)
}

// MatchContext implements matching.Matcher: the level-wise expansion
// polls ctx periodically and returns ctx.Err() when cancelled.
func (b *Matcher) MatchContext(ctx context.Context, p *matching.Problem, delta float64) (*matching.AnswerSet, error) {
	set, _, err := b.MatchStatsContext(ctx, p, delta)
	return set, err
}

// MatchStatsContext implements matching.StatsMatcher. Candidates counts
// the partial-state expansions examined, Pruned the expansions cut by
// the threshold, Yielded the complete mappings kept.
func (b *Matcher) MatchStatsContext(ctx context.Context, p *matching.Problem, delta float64) (*matching.AnswerSet, matching.SearchStats, error) {
	var col matching.Collector
	var st matching.SearchStats
	var levels [2]level // reused across schemas
	done := ctx.Done()
	for _, s := range p.Repo.Schemas() {
		if done != nil && ctx.Err() != nil {
			return nil, st, ctx.Err()
		}
		if p.CandidateSkip(s.Name, delta) {
			// Provably answer-free within delta: the unfiltered beam
			// would prune every frontier entry of this schema anyway.
			continue
		}
		if err := b.matchSchema(ctx, p, s, delta, &levels, &col, &st); err != nil {
			return nil, st, err
		}
	}
	return col.Set(), st, nil
}

// state is one partial mapping of the level-wise search: its cost and
// the offset of its targets in the level's arena.
type state struct {
	cost float64
	off  int
}

// level is one frontier; its k-element states keep their targets in
// one flat arena, k ints each, instead of a slice apiece.
type level struct {
	states []state
	arena  []int
}

// push appends the state extending targets with rid at cost c.
func (l *level) push(c float64, targets []int, rid int) {
	l.states = append(l.states, state{cost: c, off: len(l.arena)})
	l.arena = append(append(l.arena, targets...), rid)
}

// matchSchema runs the level-wise search over one schema, walking
// children through the schema's layout and the problem's cost row.
func (b *Matcher) matchSchema(ctx context.Context, p *matching.Problem, s *xmlschema.Schema, delta float64, levels *[2]level, col *matching.Collector, st *matching.SearchStats) error {
	v := p.View(s)
	bound := delta + 1e-12
	done := ctx.Done()
	cur, next := &levels[0], &levels[1]
	// Level 0: the personal root may map to any element.
	cur.states, cur.arena = cur.states[:0], cur.arena[:0]
	for rid := range v.Depth {
		st.Candidates++
		if c := v.NameCost(0, rid); c <= bound {
			cur.push(c, nil, rid)
		} else {
			st.Pruned++
		}
	}
	b.shrink(cur, 1)
	k := 1 // targets per state of cur
	for ; k < p.M() && len(cur.states) > 0; k++ {
		par := p.ParentOf(k)
		next.states, next.arena = next.states[:0], next.arena[:0]
		for _, cs := range cur.states {
			tg := cur.arena[cs.off : cs.off+k]
			pr := tg[par]
			for rid, hi := pr+1, int(v.End[pr]); rid < hi; rid++ {
				d := v.Depth[rid]
				if d > v.MaxDepth(pr) {
					rid = int(v.End[rid]) - 1 // skip the too-deep subtree
					continue
				}
				if slices.Contains(tg, rid) {
					continue // injectivity
				}
				st.Candidates++
				if done != nil && st.Candidates&matching.CancelCheckMask == 0 && ctx.Err() != nil {
					return ctx.Err()
				}
				c := cs.cost + v.NameCost(k, rid) + v.EdgeCost(d-v.Depth[pr])
				if c > bound {
					st.Pruned++
					continue
				}
				next.push(c, tg, rid)
			}
		}
		b.shrink(next, k+1)
		cur, next = next, cur
	}
	// The frontier is empty, or its states assign every element.
	for _, cs := range cur.states {
		st.Yielded++
		col.Add(matching.Mapping{Schema: s.Name, Targets: cur.arena[cs.off : cs.off+k]}, cs.cost)
	}
	return nil
}

// shrink keeps the width best k-element states of a level, breaking
// cost ties by target sequence so runs are deterministic.
func (b *Matcher) shrink(l *level, k int) {
	if len(l.states) <= b.width {
		return
	}
	slices.SortFunc(l.states, func(x, y state) int {
		tx, ty := l.arena[x.off:x.off+k], l.arena[y.off:y.off+k]
		switch {
		case x.cost != y.cost:
			return cmp.Compare(x.cost, y.cost)
		case lessTargets(tx, ty):
			return -1
		case lessTargets(ty, tx):
			return 1
		}
		return 0
	})
	l.states = l.states[:b.width]
}

// lessTargets orders target sequences lexicographically, a proper
// prefix first.
func lessTargets(a, b []int) bool { return slices.Compare(a, b) < 0 }
