package matching_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/matching"
	"repro/internal/synth"
)

func ctxTestProblem(t *testing.T) *matching.Problem {
	t.Helper()
	cfg := synth.DefaultConfig(9)
	cfg.NumSchemas = 40
	sc, err := synth.Generate(synth.PersonalLibrary(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := matching.NewProblem(sc.Personal, sc.Repo, matching.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// TestEnumerateContextCancelMidSearch cancels from inside the yield
// callback: the enumeration must unwind at the next periodic check and
// return ctx.Err(), never running to completion.
func TestEnumerateContextCancelMidSearch(t *testing.T) {
	prob := ctxTestProblem(t)
	full, _, err := matching.Exhaustive{}.MatchWithStats(prob, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() == 0 {
		t.Fatal("corpus yields no answers — test needs a non-trivial search")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	yields := 0
	var sawErr error
	for _, s := range prob.Repo.Schemas() {
		_, err := matching.Enumerate(ctx, prob, s, 0.6, nil, func(matching.Mapping, float64) {
			yields++
			cancel()
		})
		if err != nil {
			sawErr = err
			break
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", sawErr)
	}
	if yields >= full.Len() {
		t.Errorf("cancellation yielded all %d answers — search never stopped early", yields)
	}
}

// TestMatchContextPreCancelled: every matcher entry point returns
// immediately on an already-cancelled context.
func TestMatchContextPreCancelled(t *testing.T) {
	prob := ctxTestProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []matching.Matcher{matching.Exhaustive{}, matching.ParallelExhaustive{}, matching.ParallelExhaustive{Workers: 2}} {
		set, err := m.MatchContext(ctx, prob, 0.6)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", m.Name(), err)
		}
		if set != nil {
			t.Errorf("%s: cancelled match returned answers", m.Name())
		}
	}
}

// TestParallelCancellationJoinsWorkers: cancelling a parallel match
// mid-search returns promptly and leaves no worker goroutines behind.
func TestParallelCancellationJoinsWorkers(t *testing.T) {
	prob := ctxTestProblem(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := matching.ParallelExhaustive{Workers: 4}.MatchContext(ctx, prob, 0.6)
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// err == nil is possible if the search beat the 2ms cancel; the
	// goroutine check below is the invariant either way.
	if elapsed > 2*time.Second {
		t.Errorf("parallel cancellation took %s", elapsed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked: %d vs %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMatchContextBackgroundParity: under a background context the
// ctx-aware path returns exactly what Match returns — the periodic
// checks must not perturb the enumeration.
func TestMatchContextBackgroundParity(t *testing.T) {
	prob := ctxTestProblem(t)
	for _, m := range []matching.Matcher{matching.Exhaustive{}, matching.ParallelExhaustive{Workers: 3}} {
		plain, err := m.Match(prob, 0.45)
		if err != nil {
			t.Fatal(err)
		}
		withCtx, err := m.MatchContext(context.Background(), prob, 0.45)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Len() != withCtx.Len() {
			t.Fatalf("%s: %d vs %d answers", m.Name(), plain.Len(), withCtx.Len())
		}
		pa, ca := plain.All(), withCtx.All()
		for i := range pa {
			if !pa[i].Mapping.Equal(ca[i].Mapping) || pa[i].Score != ca[i].Score {
				t.Fatalf("%s: rank %d differs", m.Name(), i)
			}
		}
	}
}
