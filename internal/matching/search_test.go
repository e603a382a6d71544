package matching_test

import (
	"context"
	"math/bits"
	"testing"

	"repro/internal/matching"
	"repro/internal/xmlschema"
)

// TestSearchKernelZeroAlloc pins the warm search kernel at zero heap
// allocations per visited node: a run over a schema that yields
// nothing allocates nothing at all, and a collecting run's allocations
// grow with the logarithm of its answers, never with the nodes it
// visits.
func TestSearchKernelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch at random")
	}
	prob := ctxTestProblem(t)
	ctx := context.Background()

	// The answer-free schema with the most search work at δ=0.6.
	const delta = 0.6
	var idle *xmlschema.Schema
	var most matching.SearchStats
	noYield := func(matching.Mapping, float64) {}
	for _, s := range prob.Repo.Schemas() {
		st, err := matching.Enumerate(ctx, prob, s, delta, nil, noYield)
		if err != nil {
			t.Fatal(err)
		}
		if st.Yielded == 0 && st.Candidates > most.Candidates {
			idle, most = s, st
		}
	}
	if idle == nil || most.Candidates < 100 {
		t.Fatalf("fixture: busiest answer-free schema visits %d candidates, want ≥ 100", most.Candidates)
	}
	allocs := testing.AllocsPerRun(100, func() {
		matching.Enumerate(ctx, prob, idle, delta, nil, noYield)
	})
	if allocs != 0 {
		t.Errorf("%v allocs per warm non-yielding run over %d candidates, want 0", allocs, most.Candidates)
	}

	// A collecting run over the whole repository.
	var total matching.SearchStats
	allocs = testing.AllocsPerRun(20, func() {
		var col matching.Collector
		total = matching.SearchStats{}
		for _, s := range prob.Repo.Schemas() {
			st, _ := matching.Enumerate(ctx, prob, s, delta, nil, col.Add)
			total.Add(st)
		}
	})
	// Two slices grow geometrically: the answers (by append) and the
	// target slab (by chunk).
	if limit := 4 * bits.Len(uint(total.Yielded)); allocs > float64(limit) {
		t.Errorf("%v allocs for %d answers over %d candidates, want ≤ %d (logarithmic in the answers)",
			allocs, total.Yielded, total.Candidates, limit)
	}
}
