package match

import (
	"context"
	"fmt"

	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/xmlschema"
)

// Update atomically swaps the service's repository snapshot: mutate
// receives the current snapshot and returns the one to serve next
// (typically via Snapshot.Add/Remove/Replace; returning the input
// unchanged is a no-op). The swap is race-free — requests admitted
// before it finish against the old snapshot, requests admitted after
// see the new one, and batch groups never mix the two — and cheap:
//
//   - the cluster index of the new generation is derived from the old
//     one with Index.Apply (incremental membership maintenance; full
//     re-cluster only past the drift threshold), provided the old
//     generation had built one;
//   - every resident session's cost tables are rebased
//     (Problem.Rebase), re-scoring only the changed schemas;
//   - cached baseline answer sets are patched: answers into removed or
//     replaced schemas are dropped and only the added/replacement
//     schemas are searched, yielding exactly the set a from-scratch
//     baseline over the new snapshot would return;
//   - scoring-memo entries touching names that vanished from the
//     repository are pruned, bounding memory under churn (scores are
//     pure, so pruning never changes results).
//
// Sessions whose personal schemas were never warmed are simply rebuilt
// lazily. Concurrent Updates serialize; an error from mutate (or a
// mutation that empties the repository) leaves the service unchanged.
func (s *Service) Update(mutate func(*xmlschema.Snapshot) (*xmlschema.Snapshot, error)) error {
	return s.UpdateContext(context.Background(), mutate)
}

// UpdateContext is Update with tracing: when ctx carries an obs span,
// the update's stages — mutate, the incremental index carry,
// the warm-session rebase, and the durable append — are recorded as
// child spans. The swap semantics are identical to Update; the context
// does not cancel an update in progress.
func (s *Service) UpdateContext(ctx context.Context, mutate func(*xmlschema.Snapshot) (*xmlschema.Snapshot, error)) error {
	if mutate == nil {
		return fmt.Errorf("match: nil update function")
	}
	s.updateMu.Lock()
	defer s.updateMu.Unlock()

	old := s.currentState()
	_, mutSpan := obs.StartSpan(ctx, "update_mutate")
	next, err := mutate(old.snap)
	mutSpan.End()
	if err != nil {
		return fmt.Errorf("match: update: %w", err)
	}
	if next == nil {
		return fmt.Errorf("match: update returned a nil snapshot")
	}
	if next == old.snap {
		return nil
	}
	if next.Len() == 0 {
		return fmt.Errorf("match: update empties the repository")
	}
	diff := xmlschema.DiffSnapshots(old.snap, next)
	nst := &serviceState{snap: next, gen: old.gen + 1}

	_, carrySpan := obs.StartSpan(ctx, "update_carry")
	carrySpan.SetInt("added", int64(len(diff.Added)))
	carrySpan.SetInt("removed", int64(len(diff.Removed)))

	// Derive the new generation's index incrementally when the old one
	// is built, consuming the state's build-once so a later Index()
	// call adopts the applied index instead of rebuilding from scratch.
	// An Apply failure (or an old index build error) leaves the index
	// lazy: the next clustered request rebuilds from scratch.
	if ix, ixErr, done := old.builtIndex(); done && ixErr == nil && ix != nil {
		if applied, err := ix.Apply(next.Repository(), diff); err == nil {
			nst.index.Seed(applied, nil)
		}
	}

	// Same treatment for the candidate index: advance the old
	// generation's inverted q-gram index with the diff instead of
	// re-profiling every name, so a later candOf adopts it. An Apply
	// failure leaves the cell lazy — the next filtered problem build
	// re-indexes from scratch.
	if cix, cErr, done := old.builtCand(); done && cErr == nil && cix != nil {
		if applied, err := cix.Apply(next.Repository(), diff); err == nil {
			nst.cand.Seed(applied, nil)
		}
	}

	carrySpan.End()

	// Rebase the old generation's resident sessions into the new one,
	// least recently used first so recency order carries over. The
	// heavy work runs without holding the service lock; requests
	// pinned to the old state keep using their (unmodified) sessions.
	_, rebaseSpan := obs.StartSpan(ctx, "update_rebase")
	type carry struct {
		key sessionKey
		e   *session
	}
	var warm []carry
	s.mu.Lock()
	s.sessions.Each(func(k sessionKey, e *session) {
		if k.gen == old.gen {
			warm = append(warm, carry{key: k, e: e})
		}
	})
	s.mu.Unlock()
	for _, c := range warm {
		ne := s.rebaseSession(c.e, nst, diff)
		if ne == nil {
			continue
		}
		s.mu.Lock()
		s.sessions.Put(sessionKey{personal: c.key.personal, gen: nst.gen}, ne)
		s.mu.Unlock()
	}

	// Retire every session of older generations. In-flight holders
	// finish on their session objects regardless; this only stops the
	// cache from handing them out again.
	s.mu.Lock()
	s.sessions.RemoveFunc(func(k sessionKey, _ *session) bool { return k.gen != nst.gen })
	s.mu.Unlock()

	rebaseSpan.SetInt("sessions", int64(len(warm)))
	rebaseSpan.End()

	s.pruneMemo(nst, diff)
	s.state.Store(nst)

	// Durability last: the diff is appended only for a transition the
	// service actually adopted. A failed append does NOT roll the swap
	// back — requests already see the new snapshot and rolling back
	// would trade a durability gap for a serving inconsistency — so the
	// error reaches the caller while the next successful Update's
	// append gap-heals the log with a full base (TenantStore contract).
	if s.store != nil {
		_, storeSpan := obs.StartSpan(ctx, "update_store")
		err := s.store.AppendDiff(next, diff)
		storeSpan.End()
		if err != nil {
			return fmt.Errorf("match: update applied, durable append failed: %w", err)
		}
	}
	return nil
}

// rebaseSession carries one warm session across a snapshot swap. It
// returns nil when the session has nothing worth carrying (no built
// problem, or a failed one); the baseline, when present, is patched to
// exactly the set a fresh baseline run over the new snapshot would
// produce. A baseline build still in flight is left behind — it
// belongs to the old generation and completes there harmlessly.
func (s *Service) rebaseSession(old *session, nst *serviceState, diff xmlschema.Diff) *session {
	old.mu.Lock()
	probDone, prob, probErr := old.probDone, old.prob, old.probErr
	baseSet := old.baseSet
	old.mu.Unlock()
	if !probDone || probErr != nil || prob == nil {
		return nil
	}
	var np *matching.Problem
	var err error
	if _, filtered := prob.CandidateStats(); filtered && s.candOn {
		// Rebase with the new generation's candidate index so changed
		// schemas get filtered tables too (a nil filter would leave them
		// exhaustively scored — correct, but unpruned). A failed index
		// build degrades to exactly that.
		if cix, cErr := nst.candOf(s); cErr == nil {
			np, err = prob.RebaseCandidates(nst.snap.Repository(), cix)
		} else {
			np, err = prob.Rebase(nst.snap.Repository())
		}
	} else {
		np, err = prob.Rebase(nst.snap.Repository())
	}
	if err != nil {
		return nil
	}
	ne := &session{personal: old.personal, st: nst, prob: np, probDone: true}
	if baseSet == nil {
		return ne
	}
	if !np.ExactWithin(s.MaxDelta()) {
		// The carried tables are only exact up to the pruning horizon;
		// patching the full-horizon baseline from them could miss
		// answers. Leave it behind — runBaseline rebuilds it lazily from
		// an unfiltered problem.
		return ne
	}

	// Patch the baseline: drop answers into schemas the diff touched,
	// then search only the added/replacement schemas at the horizon.
	changed := make(map[string]bool, len(diff.Removed)+len(diff.Replaced))
	for _, sch := range diff.Removed {
		changed[sch.Name] = true
	}
	for _, ch := range diff.Replaced {
		changed[ch.Old.Name] = true
	}
	answers := make([]matching.Answer, 0, baseSet.Len())
	for _, a := range baseSet.All() {
		if !changed[a.Mapping.Schema] {
			answers = append(answers, a)
		}
	}
	fresh := make([]*xmlschema.Schema, 0, len(diff.Added)+len(diff.Replaced))
	fresh = append(fresh, diff.Added...)
	for _, ch := range diff.Replaced {
		fresh = append(fresh, ch.New)
	}
	var col matching.Collector
	for _, sch := range fresh {
		if _, err := matching.Enumerate(context.Background(), np, sch, s.MaxDelta(), nil, col.Add); err != nil {
			return ne // keep the tables; the baseline rebuilds lazily
		}
	}
	set := matching.NewAnswerSet(append(answers, col.Answers()...))
	curve, err := s.measureBaseline(set)
	if err != nil {
		return ne
	}
	ne.baseSet, ne.baseScores, ne.baseCurve = set, set.ScoreIndex(), curve
	return ne
}

// pruneMemo drops scoring-memo entries touching names that no longer
// appear anywhere in the new snapshot. Scores are pure functions of
// their name pair, so this is purely a memory bound: repositories
// churning schemas for days must not accumulate score entries for
// names retired long ago.
func (s *Service) pruneMemo(nst *serviceState, diff xmlschema.Diff) {
	if s.memo == nil {
		return
	}
	retired := make(map[string]bool)
	collect := func(sch *xmlschema.Schema) {
		sch.Walk(func(e *xmlschema.Element) bool {
			retired[e.Name] = true
			return true
		})
	}
	for _, sch := range diff.Removed {
		collect(sch)
	}
	for _, ch := range diff.Replaced {
		collect(ch.Old)
	}
	if len(retired) == 0 {
		return
	}
	// Names still present in the new snapshot survive. The applied
	// index knows the live-name set exactly; without one, walk the
	// repository.
	if ix, err, done := nst.builtIndex(); done && err == nil && ix != nil {
		for n := range retired {
			if ix.HasName(n) {
				delete(retired, n)
			}
		}
	} else {
		for _, sch := range nst.snap.Schemas() {
			if len(retired) == 0 {
				break
			}
			sch.Walk(func(e *xmlschema.Element) bool {
				delete(retired, e.Name)
				return len(retired) > 0
			})
		}
	}
	if len(retired) == 0 {
		return
	}
	s.memo.Remove(func(a, b string) bool { return retired[a] || retired[b] })
}
