package match

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/eval"
	"repro/internal/synth"
	"repro/internal/xmlschema"
)

// candidateSpecs is the matcher grid the parity property sweeps: every
// registry family.
var candidateSpecs = []string{
	"exhaustive", "parallel", "beam:8", "topk:0.05", "clustered",
}

// candidateScenario builds one synthetic corpus and a pair of services
// over it: plain, and candidate-filtered at horizon.
func candidateScenario(t *testing.T, seed uint64, horizon float64) (*xmlschema.Schema, *Service, *Service) {
	t.Helper()
	personal, err := synth.RandomPersonal(seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := synth.DefaultConfig(300 + seed)
	cfg.NumSchemas = 25
	cfg.PlantRate = 0.3
	cfg.PerturbStrength = 0.7
	sc, err := synth.Generate(personal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	thresholds := eval.Thresholds(0, 0.45, 9)
	plain, err := NewService(sc.Repo, WithThresholds(thresholds))
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := NewService(sc.Repo,
		WithThresholds(thresholds),
		WithCandidateIndex(horizon),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Personal, plain, filtered
}

// checkCandidateParity runs the full spec × delta grid on both services
// and requires bit-identical answer sets (keys, scores, and rank order).
// It returns the total pruned-pair count so callers can assert the
// property is not vacuous.
func checkCandidateParity(t *testing.T, label string, personal *xmlschema.Schema, plain, filtered *Service, horizon float64, deltas []float64) int64 {
	t.Helper()
	var totalPruned int64
	ctx := context.Background()
	for _, delta := range deltas {
		for _, spec := range candidateSpecs {
			name := fmt.Sprintf("%s/δ=%.2f/%s", label, delta, spec)
			want, err := plain.Match(ctx, Request{Personal: personal, Delta: delta, Matcher: spec})
			if err != nil {
				t.Fatalf("%s: plain: %v", name, err)
			}
			got, err := filtered.Match(ctx, Request{Personal: personal, Delta: delta, Matcher: spec})
			if err != nil {
				t.Fatalf("%s: filtered: %v", name, err)
			}
			sameSets(t, name, got.Set, want.Set)
			// Telemetry contract: pruning stats exactly when the request
			// was served by the filtered problem (delta within horizon).
			if delta <= horizon+1e-9 {
				if got.Stats.Candidates == nil {
					t.Fatalf("%s: no candidate stats within the horizon", name)
				}
				if cs := got.Stats.Candidates; cs.Pruned < 0 || cs.Pruned > cs.Pairs {
					t.Fatalf("%s: nonsense pruning counters: %+v", name, cs)
				} else {
					totalPruned += cs.Pruned
				}
			} else if got.Stats.Candidates != nil {
				t.Fatalf("%s: candidate stats on an over-horizon request", name)
			}
			if want.Stats.Candidates != nil {
				t.Fatalf("%s: plain service reported candidate stats", name)
			}
		}
	}
	return totalPruned
}

// TestCandidateParityProperty is the end-to-end guarantee of the
// candidate index: for every registry matcher family and request
// threshold, a service with WithCandidateIndex returns answer
// sets bit-identical to one without — scores, keys, and rank order —
// both within the pruning horizon (where tables are filtered) and above
// it (where the service must route to an unfiltered problem).
func TestCandidateParityProperty(t *testing.T) {
	deltas := []float64{0.1, 0.3, 0.45}
	for _, horizon := range []float64{0.12, 0.45} {
		horizon := horizon
		t.Run(fmt.Sprintf("horizon=%.2f", horizon), func(t *testing.T) {
			t.Parallel()
			var pruned int64
			for seed := uint64(1); seed <= 3; seed++ {
				personal, plain, filtered := candidateScenario(t, seed, horizon)
				label := fmt.Sprintf("seed%d", seed)
				pruned += checkCandidateParity(t, label, personal, plain, filtered, horizon, deltas)
			}
			if horizon <= 0.2 && pruned == 0 {
				t.Fatal("parity held vacuously: the filter never pruned a pair at the tight horizon")
			}
		})
	}
}

// TestCandidateParityUnderChurn re-checks the parity property across
// live snapshot swaps: both services apply the same update sequence
// (add, replace, remove) and must stay bit-identical, exercising the
// incremental index Apply and the filtered session rebase.
func TestCandidateParityUnderChurn(t *testing.T) {
	const horizon = 0.45
	deltas := []float64{0.3, 0.45}
	personal, plain, filtered := candidateScenario(t, 5, horizon)
	checkCandidateParity(t, "pre-churn", personal, plain, filtered, horizon, deltas)

	extra, err := xmlschema.NewSchema("churn-added",
		xmlschema.NewElement("catalog").Add(
			xmlschema.NewElement("book_title"),
			xmlschema.NewElement("writer"),
			xmlschema.NewElement("cost"),
		))
	if err != nil {
		t.Fatal(err)
	}
	steps := []func(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error){
		func(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
			return snap.Add(extra)
		},
		func(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
			victim := snap.Schemas()[0]
			repl, err := snap.Schemas()[1].CloneAs(victim.Name)
			if err != nil {
				return nil, err
			}
			return snap.Replace(repl)
		},
		func(snap *xmlschema.Snapshot) (*xmlschema.Snapshot, error) {
			return snap.Remove(snap.Schemas()[2].Name)
		},
	}
	for i, step := range steps {
		if err := plain.Update(step); err != nil {
			t.Fatalf("step %d: plain update: %v", i, err)
		}
		if err := filtered.Update(step); err != nil {
			t.Fatalf("step %d: filtered update: %v", i, err)
		}
		checkCandidateParity(t, fmt.Sprintf("churn%d", i), personal, plain, filtered, horizon, deltas)
	}
}

// TestCandidateIndexRequiresMetricScorer: the option must be rejected
// at construction when the scorer cannot expose its metric, not fail
// requests later.
func TestCandidateIndexRequiresMetricScorer(t *testing.T) {
	cfg := synth.DefaultConfig(2)
	cfg.NumSchemas = 5
	sc, err := synth.Generate(synth.PersonalLibrary(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(sc.Repo, WithCandidateIndex(0.3), WithScorer(opaqueScorer{})); err == nil {
		t.Fatal("WithCandidateIndex accepted a scorer without a Metric accessor")
	}
}

// opaqueScorer is an engine.Scorer that hides its metric.
type opaqueScorer struct{}

func (opaqueScorer) Score(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}
func (opaqueScorer) MetricName() string { return "default" }
