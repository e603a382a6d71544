package main

// Answer checking. References come from match.NewService over the same
// generated repositories, in this process, outside every timed
// interval; each served answer list must equal the reference
// bit-for-bit, and every non-exhaustive answer must also satisfy the
// paper's guarantee A_S2 ⊆ A_S1 with identical scores.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/httpserve"
	"repro/internal/matching"
	"repro/internal/xmlschema"
	"repro/match"
)

// refKey identifies one reference answer set.
type refKey struct {
	tenant   string
	personal *xmlschema.Schema
	spec     string
}

// reference computes in-process answer sets, one Service per tenant
// configured as matchd configures its tenants. Sets of planted
// personals are cached; fresh personals are computed on demand and
// dropped, and a tenant's service is replaced every refRecycle fresh
// computations so its scoring memo stays bounded.
type reference struct {
	delta float64
	repos map[string]*xmlschema.Repository
	// clusteredSubsetOnly holds clustered answers to the guarantee
	// alone (see stateReference).
	clusteredSubsetOnly bool

	mu   sync.Mutex
	svcs map[string]*match.Service
	uses map[string]int
	sets map[refKey]*matching.AnswerSet
}

// refRecycle bounds the fresh computations one reference service runs.
const refRecycle = 300

// newReference builds a reference over repos (tenant → repository).
func newReference(repos map[string]*xmlschema.Repository, delta float64) (*reference, error) {
	r := &reference{
		delta: delta,
		repos: repos,
		svcs:  make(map[string]*match.Service, len(repos)),
		uses:  map[string]int{},
		sets:  map[refKey]*matching.AnswerSet{},
	}
	for name := range repos {
		if err := r.renew(name); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// renew replaces tenant's service with a new one; callers other than
// newReference hold r.mu.
func (r *reference) renew(tenant string) error {
	svc, err := match.NewService(r.repos[tenant])
	if err != nil {
		return fmt.Errorf("reference %s: %w", tenant, err)
	}
	r.svcs[tenant], r.uses[tenant] = svc, 0
	return nil
}

// set returns the full reference answer set of (tenant, personal,
// spec), cached unless the personal is fresh.
func (r *reference) set(tenant string, personal *xmlschema.Schema, spec string, fresh bool) (*matching.AnswerSet, error) {
	k := refKey{tenant, personal, spec}
	r.mu.Lock()
	s, ok := r.sets[k]
	svc := r.svcs[tenant]
	if svc == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("reference: unknown tenant %q", tenant)
	}
	if fresh {
		if r.uses[tenant]++; r.uses[tenant] > refRecycle {
			if err := r.renew(tenant); err != nil {
				r.mu.Unlock()
				return nil, err
			}
			svc = r.svcs[tenant]
		}
	}
	r.mu.Unlock()
	if ok {
		return s, nil
	}
	res, err := svc.Match(context.Background(), match.Request{Personal: personal, Delta: r.delta, Matcher: spec})
	if err != nil {
		return nil, fmt.Errorf("reference %s/%s/%s: %w", tenant, personal.Name, spec, err)
	}
	if !fresh {
		r.mu.Lock()
		r.sets[k] = res.Set
		r.mu.Unlock()
	}
	return res.Set, nil
}

// check compares one served response with the reference: the answer
// list (after Limit) must be identical, the reported total must equal
// the reference set's size, and non-exhaustive answers must be a
// subset of A_S1 with equal scores.
func (r *reference) check(m *matchOp, answers []httpserve.Answer, total int) error {
	sp, err := match.Parse(m.Spec)
	if err != nil {
		return err
	}
	if r.clusteredSubsetOnly && sp.Family == match.FamilyClustered {
		return r.checkSubset(m, answers)
	}
	set, err := r.set(m.Tenant, m.Personal, m.Spec, m.Fresh)
	if err != nil {
		return err
	}
	want := set.All()
	if m.Limit > 0 {
		want = set.TopN(m.Limit)
	}
	if total != set.Len() {
		return fmt.Errorf("%s/%s/%s: %d answers reported, reference has %d", m.Tenant, m.Personal.Name, m.Spec, total, set.Len())
	}
	if len(answers) != len(want) {
		return fmt.Errorf("%s/%s/%s: %d answers served, reference has %d", m.Tenant, m.Personal.Name, m.Spec, len(answers), len(want))
	}
	for i, a := range answers {
		if !sameAnswer(a, want[i]) {
			return fmt.Errorf("%s/%s/%s: answer %d differs from the reference", m.Tenant, m.Personal.Name, m.Spec, i)
		}
	}
	if sp.Exhaustive() {
		return nil
	}
	return r.checkSubset(m, answers)
}

// checkSubset checks the paper's guarantee on served answers: every
// one is in A_S1 with the same score.
func (r *reference) checkSubset(m *matchOp, answers []httpserve.Answer) error {
	exh, err := r.set(m.Tenant, m.Personal, "exhaustive", m.Fresh)
	if err != nil {
		return err
	}
	if err := fromWire(answers).SubsetOf(exh); err != nil {
		return fmt.Errorf("%s/%s/%s: guarantee violated: %w", m.Tenant, m.Personal.Name, m.Spec, err)
	}
	return nil
}

// sameAnswer reports whether a served answer equals a reference one
// exactly (scores round-trip JSON bit-for-bit).
func sameAnswer(a httpserve.Answer, b matching.Answer) bool {
	if a.Schema != b.Mapping.Schema || a.Score != b.Score || len(a.Targets) != len(b.Mapping.Targets) {
		return false
	}
	for i, t := range a.Targets {
		if t != b.Mapping.Targets[i] {
			return false
		}
	}
	return true
}

// fromWire rebuilds an answer set from served answers.
func fromWire(answers []httpserve.Answer) *matching.AnswerSet {
	out := make([]matching.Answer, len(answers))
	for i, a := range answers {
		out[i] = matching.Answer{Mapping: matching.Mapping{Schema: a.Schema, Targets: a.Targets}, Score: a.Score}
	}
	return matching.NewAnswerSet(out)
}

// checkAll checks every outcome against ref with conns goroutines and
// returns the failures, one error per failed request.
func checkAll(ref *reference, outs []*matchOutcome, conns int) []error {
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	next := make(chan *matchOutcome)
	wg.Add(conns)
	for i := 0; i < conns; i++ {
		go func() {
			defer wg.Done()
			for o := range next {
				if err := ref.check(o.Op, o.Answers, o.Total); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	for _, o := range outs {
		if o.Err == nil {
			next <- o
		}
	}
	close(next)
	wg.Wait()
	return errs
}
