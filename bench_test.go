// Benchmark harness: one benchmark per evaluation artifact of the
// paper (Figures 5, 6, 8, 9, 10, 11, 12, 13), plus ablation benchmarks
// for the design choices DESIGN.md calls out (matcher families, bounds
// algorithms, metric choices).
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/bounds"
	"repro/internal/candindex"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/matchers/beam"
	"repro/internal/matchers/clustered"
	"repro/internal/matchers/topk"
	"repro/internal/matching"
	"repro/internal/similarity"
	"repro/internal/synth"
	"repro/internal/xmlschema"
)

// The shared experiment fixture: built once, reused by every figure
// benchmark so that each benchmark times only its own figure's work.
var (
	fixOnce sync.Once
	fix     struct {
		pl       *core.Pipeline
		runOne   *core.Run
		runTwo   *core.Run
		problem  *matching.Problem
		scenario *synth.Scenario
	}
)

func fixture(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		scfg := synth.DefaultConfig(1)
		scfg.NumSchemas = 100
		pl, err := core.NewPipeline(core.Options{
			Synth:      scfg,
			Thresholds: eval.Thresholds(0, 0.45, 15),
		})
		if err != nil {
			panic(err)
		}
		one, two, err := pl.StandardImprovements()
		if err != nil {
			panic(err)
		}
		runOne, err := pl.RunImprovement(one)
		if err != nil {
			panic(err)
		}
		runTwo, err := pl.RunImprovement(two)
		if err != nil {
			panic(err)
		}
		fix.pl = pl
		fix.runOne = runOne
		fix.runTwo = runTwo
		fix.problem = pl.Problem
		fix.scenario = pl.Scenario
	})
}

// ---------------------------------------------------------------------------
// Figure benchmarks
// ---------------------------------------------------------------------------

// BenchmarkFig5MeasuredCurve times measuring S1's P/R curve (Figure 5):
// threshold sweep over the exhaustive answer set against truth.
func BenchmarkFig5MeasuredCurve(b *testing.B) {
	fixture(b)
	truth := fix.pl.Truth
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eval.MeasuredCurve(fix.pl.S1, truth, fix.pl.Thresholds)
	}
}

// BenchmarkFig6Interpolated times the 11-point interpolation (Figure 6).
func BenchmarkFig6Interpolated(b *testing.B) {
	fixture(b)
	for i := 0; i < b.N; i++ {
		_ = eval.Interpolate(fix.pl.S1Curve)
	}
}

// BenchmarkFig8Incremental times the worked example's incremental
// bound computation (Figure 8).
func BenchmarkFig8Incremental(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9FixedRatio times bounds for the fixed-ratio-0.9
// hypothetical system (Figure 9).
func BenchmarkFig9FixedRatio(b *testing.B) {
	fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure9(fix.pl, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10RatioCurves times measuring the answer-size-ratio
// curves of both real improvements (Figure 10), including the matcher
// runs — the expensive part the paper's Section 3.3 describes.
func BenchmarkFig10RatioCurves(b *testing.B) {
	fixture(b)
	one, two, err := fix.pl.StandardImprovements()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1, err := fix.pl.RunImprovement(one)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := fix.pl.RunImprovement(two)
		if err != nil {
			b.Fatal(err)
		}
		_ = core.Figure10(fix.pl, r1, r2)
	}
}

// BenchmarkFig11BothSystems times the full bounds computation for both
// improvements from precomputed runs (Figure 11).
func BenchmarkFig11BothSystems(b *testing.B) {
	fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Figure11(fix.pl, fix.runOne, fix.runTwo)
	}
}

// BenchmarkFig12InterpolatedInput times the §4.1 pipeline: interpolated
// curve + |H| guess → reconstructed curve → bounds (Figure 12).
func BenchmarkFig12InterpolatedInput(b *testing.B) {
	fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure12(fix.pl, 15000, fix.runOne, fix.runTwo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13SubIncrement times the sub-increment boundary sweep
// (Figure 13).
func BenchmarkFig13SubIncrement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure13(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks: matcher families (the efficiency side of the
// efficiency/effectiveness trade-off)
// ---------------------------------------------------------------------------

func BenchmarkMatcherExhaustive(b *testing.B) {
	fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (matching.Exhaustive{}).Match(fix.problem, 0.45); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatcherBeam32(b *testing.B) {
	fixture(b)
	bm, err := beam.New(32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bm.Match(fix.problem, 0.45); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatcherTopkMargin(b *testing.B) {
	fixture(b)
	tk, err := topk.New(0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tk.Match(fix.problem, 0.45); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatcherClustered(b *testing.B) {
	fixture(b)
	ix, err := clustered.BuildIndex(fix.scenario.Repo, clustered.IndexConfig{Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	cm, err := clustered.New(ix, ix.K()/6+1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cm.Match(fix.problem, 0.45); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusteredIndexBuild(b *testing.B) {
	fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clustered.BuildIndex(fix.scenario.Repo, clustered.IndexConfig{Seed: 17}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexIncrementalVsRebuild compares the two ways of keeping
// the cluster index current after a single-schema repository update on
// the Figure-8/9 workload (the 100-schema fixture corpus): Index.Apply
// of the snapshot diff (incremental membership maintenance) versus a
// full BuildIndex of the updated repository. The incremental path must
// win for single-schema diffs — that is the premise of live tenant
// updates.
func BenchmarkIndexIncrementalVsRebuild(b *testing.B) {
	fixture(b)
	snap, err := xmlschema.NewSnapshot(fix.scenario.Repo)
	if err != nil {
		b.Fatal(err)
	}
	victim := snap.Schemas()[0]
	repl, err := snap.Schemas()[1].CloneAs(victim.Name)
	if err != nil {
		b.Fatal(err)
	}
	next, err := snap.Replace(repl)
	if err != nil {
		b.Fatal(err)
	}
	diff := xmlschema.DiffSnapshots(snap, next)
	// Forcing RebuildFraction < 0 pins Apply to the incremental path so
	// the two sub-benchmarks measure what their names claim.
	ix, err := clustered.BuildIndex(snap.Repository(), clustered.IndexConfig{Seed: 17, RebuildFraction: -1})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.Apply(next.Repository(), diff); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := clustered.BuildIndex(next.Repository(), clustered.IndexConfig{Seed: 17}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Engine benchmarks: memoized vs uncached scoring on the Figure-8/9
// workload (the 100-schema scenario every figure benchmark runs on).
// Each benchmark builds the problem's cost tables through its scorer
// and runs the parallel exhaustive matcher at δ = 0.45, then checks the
// answer set is identical to the fixture's exhaustive baseline — the
// speedup must come purely from memoization, never from changed scores.
// ---------------------------------------------------------------------------

// benchEngineBuildAndMatch is the shared body: problem build + S1 match
// through the given scorer, with output verification against fix.pl.S1.
func benchEngineBuildAndMatch(b *testing.B, scorer func() engine.Scorer) {
	fixture(b)
	delta := fix.pl.MaxDelta()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := matching.DefaultConfig()
		cfg.Scorer = scorer()
		prob, err := matching.NewProblem(fix.scenario.Personal, fix.scenario.Repo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		set, err := matching.ParallelExhaustive{}.Match(prob, delta)
		if err != nil {
			b.Fatal(err)
		}
		if set.Len() != fix.pl.S1.Len() {
			b.Fatalf("answer set diverged: %d answers, want %d", set.Len(), fix.pl.S1.Len())
		}
		if err := set.SubsetOf(fix.pl.S1); err != nil {
			b.Fatalf("answer set diverged: %v", err)
		}
	}
}

// BenchmarkEngineUncached is the baseline: every problem build pays the
// full string-metric cost for every (personal, repository) name pair.
func BenchmarkEngineUncached(b *testing.B) {
	benchEngineBuildAndMatch(b, func() engine.Scorer { return engine.NewUncached(nil) })
}

// BenchmarkEngineMemoizedCold starts from an empty memo every
// iteration: the speedup over BenchmarkEngineUncached is what repeated
// names within one corpus are worth.
func BenchmarkEngineMemoizedCold(b *testing.B) {
	benchEngineBuildAndMatch(b, func() engine.Scorer { return engine.New(nil) })
}

// BenchmarkEngineMemoizedShared reuses one memo across iterations —
// the steady state of a pipeline that shares its scorer across deltas,
// improvements, and repeated problem builds.
func BenchmarkEngineMemoizedShared(b *testing.B) {
	shared := engine.New(nil)
	benchEngineBuildAndMatch(b, func() engine.Scorer { return shared })
}

// ---------------------------------------------------------------------------
// Ablation benchmarks: bounds algorithms
// ---------------------------------------------------------------------------

func boundsInput(b *testing.B) bounds.Input {
	b.Helper()
	fixture(b)
	return bounds.Input{
		S1:        fix.pl.S1Curve,
		Sizes2:    fix.runTwo.Sizes2,
		HOverride: fix.pl.Truth.Size(),
	}
}

func BenchmarkBoundsNaive(b *testing.B) {
	in := boundsInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bounds.Naive(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoundsIncremental(b *testing.B) {
	in := boundsInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bounds.Incremental(in); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks: name metrics (the dominant cost of matching)
// ---------------------------------------------------------------------------

func benchMetric(b *testing.B, m similarity.Metric) {
	pairs := [][2]string{
		{"customerName", "client_name"},
		{"zipcode", "postal_code"},
		{"title", "booktitle"},
		{"unrelated", "completely_different"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		_ = m.Similarity(p[0], p[1])
	}
}

func BenchmarkMetricEdit(b *testing.B)        { benchMetric(b, similarity.EditSim{}) }
func BenchmarkMetricJaroWinkler(b *testing.B) { benchMetric(b, similarity.JaroWinklerSim{}) }
func BenchmarkMetricDefault(b *testing.B)     { benchMetric(b, similarity.DefaultNameMetric()) }
func BenchmarkMetricDefaultCached(b *testing.B) {
	benchMetric(b, similarity.NewCached(similarity.DefaultNameMetric()))
}

// kernelBenchShapes are the pair shapes the kernel perf trail pins:
// short ASCII (the common case, single-word Myers), long Unicode
// (multi-word blocks on the rune-mapped path), and token-heavy names
// (the synonym alignment loop).
var kernelBenchShapes = []struct {
	name string
	a, b string
}{
	{"ShortASCII", "customerName", "client_name"},
	{"LongUnicode", strings.Repeat("Ωμέγα", 30) + "ß", strings.Repeat("schemaÉlement", 12)},
	{"TokenHeavy", "customer full name address line", "client_name-address.line_two"},
}

// BenchmarkKernel times the compiled default-metric kernel on warm
// interned profiles (allocs/op must read 0) against the reference
// Metric.Similarity on raw strings — the per-pair speedup the batched
// row scorers multiply out.
func BenchmarkKernel(b *testing.B) {
	for _, sh := range kernelBenchShapes {
		b.Run(sh.name, func(b *testing.B) {
			sess := similarity.NewKernel(nil).Session()
			defer sess.Close()
			sess.Similarity(sh.a, sh.b) // warm: intern profiles, grow scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = sess.Similarity(sh.a, sh.b)
			}
		})
		b.Run(sh.name+"Reference", func(b *testing.B) {
			m := similarity.DefaultNameMetric()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.Similarity(sh.a, sh.b)
			}
		})
	}
}

// BenchmarkScenarioGeneration times corpus generation (the substrate
// substituted for the paper's web crawl).
func BenchmarkScenarioGeneration(b *testing.B) {
	cfg := synth.DefaultConfig(1)
	cfg.NumSchemas = 100
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(synth.PersonalLibrary(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Candidate-index benchmarks: cost-table build with and without the
// inverted q-gram candidate filter at a tight threshold, on a corpus an
// order of magnitude larger than the figure fixture. The filtered build
// must return the bit-identical answer set — the speedup comes purely
// from provably safe pruning. Run on two corpus shapes: uniform schema
// sizes and a heavy-tailed (zipf) size distribution.
// ---------------------------------------------------------------------------

// candBenchDelta is the request threshold and the index's pruning
// horizon: tight enough that most of the corpus is prunable.
const candBenchDelta = 0.15

type candBenchShape struct {
	scenario *synth.Scenario
	index    *candindex.Index
	answers  *matching.AnswerSet // unfiltered exhaustive baseline at candBenchDelta
	shared   *engine.Memo        // warm memo: the service's steady state
}

var (
	candBenchOnce sync.Once
	candBenchFix  map[string]*candBenchShape
)

// candBenchFixture generates the two 1200-schema corpora, builds one
// candidate index per corpus, and records the unfiltered exhaustive
// answer set each filtered run is checked against.
func candBenchFixture(b *testing.B) map[string]*candBenchShape {
	b.Helper()
	candBenchOnce.Do(func() {
		candBenchFix = make(map[string]*candBenchShape)
		for _, shape := range []string{"uniform", "zipf"} {
			cfg := synth.DefaultConfig(17)
			cfg.NumSchemas = 1200
			cfg.PlantRate = 0.05
			cfg.PerturbStrength = 0.8
			cfg.SizeDist = shape
			sc, err := synth.Generate(synth.PersonalLibrary(), cfg)
			if err != nil {
				panic(err)
			}
			scorer := engine.New(nil)
			ix, err := candindex.Build(sc.Repo, candindex.Config{Metric: scorer.Metric()})
			if err != nil {
				panic(err)
			}
			shared := engine.New(nil)
			mcfg := matching.DefaultConfig()
			mcfg.Scorer = shared // the baseline build warms the memo
			prob, err := matching.NewProblem(sc.Personal, sc.Repo, mcfg)
			if err != nil {
				panic(err)
			}
			set, err := matching.ParallelExhaustive{}.Match(prob, candBenchDelta)
			if err != nil {
				panic(err)
			}
			candBenchFix[shape] = &candBenchShape{scenario: sc, index: ix, answers: set, shared: shared}
		}
	})
	return candBenchFix
}

// candBenchProblem builds one problem over a shape's corpus — filtered
// through its candidate index or unfiltered — through the given scorer.
func candBenchProblem(b *testing.B, sh *candBenchShape, scorer engine.Scorer, filtered bool) *matching.Problem {
	cfg := matching.DefaultConfig()
	cfg.Scorer = scorer
	if filtered {
		cfg.Candidates = sh.index
		cfg.CandidateDelta = candBenchDelta
	}
	prob, err := matching.NewProblem(sh.scenario.Personal, sh.scenario.Repo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return prob
}

// candBenchVerify asserts a problem reproduces the shape's unfiltered
// exhaustive answer set at candBenchDelta, scores included.
func candBenchVerify(b *testing.B, sh *candBenchShape, prob *matching.Problem) {
	b.Helper()
	set, err := matching.ParallelExhaustive{}.Match(prob, candBenchDelta)
	if err != nil {
		b.Fatal(err)
	}
	if set.Len() != sh.answers.Len() {
		b.Fatalf("answer set diverged: %d answers, want %d", set.Len(), sh.answers.Len())
	}
	if err := set.SubsetOf(sh.answers); err != nil {
		b.Fatalf("answer set diverged: %v", err)
	}
}

// BenchmarkCandidateIndex times the cost-table build (problem
// construction) on the 1200-schema corpus, filtered vs unfiltered, on
// both corpus shapes. "cold" pays a fresh memo's metric evaluations
// every iteration; the unsuffixed variants share one warm memo — the
// service's steady state, where the table fill itself is the cost and
// the candidate filter's pruning shows its full effect. Every filtered
// sub-benchmark verifies answer-set parity before timing and reports
// the fraction of pairs pruned.
func BenchmarkCandidateIndex(b *testing.B) {
	shapes := candBenchFixture(b)
	for _, shape := range []string{"uniform", "zipf"} {
		sh := shapes[shape]
		scorers := []struct {
			name string
			mk   func() engine.Scorer
		}{
			{"cold", func() engine.Scorer { return engine.New(nil) }},
			{"", func() engine.Scorer { return sh.shared }},
		}
		for _, sc := range scorers {
			suffix := ""
			if sc.name != "" {
				suffix = "-" + sc.name
			}
			b.Run(shape+"/unfiltered"+suffix, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					prob := candBenchProblem(b, sh, sc.mk(), false)
					if i == 0 {
						b.StopTimer()
						candBenchVerify(b, sh, prob)
						b.StartTimer()
					}
				}
			})
			b.Run(shape+"/filtered"+suffix, func(b *testing.B) {
				var cs matching.CandidateStats
				for i := 0; i < b.N; i++ {
					prob := candBenchProblem(b, sh, sc.mk(), true)
					var ok bool
					if cs, ok = prob.CandidateStats(); !ok {
						b.Fatal("filtered problem reports no candidate stats")
					}
					if i == 0 {
						b.StopTimer()
						candBenchVerify(b, sh, prob)
						b.StartTimer()
					}
				}
				b.ReportMetric(cs.Ratio(), "pruned/pairs")
				b.ReportMetric(float64(cs.SkippedSchemas), "schemas-skipped")
			})
		}
	}
}

// BenchmarkCandidateIndexApply times one incremental index maintenance
// step — a single-schema replace diff — against rebuilding the index
// from scratch over the changed repository.
func BenchmarkCandidateIndexApply(b *testing.B) {
	sh := candBenchFixture(b)["uniform"]
	snap, err := xmlschema.NewSnapshot(sh.scenario.Repo)
	if err != nil {
		b.Fatal(err)
	}
	victim := snap.Schemas()[0]
	repl, err := snap.Schemas()[1].CloneAs(victim.Name)
	if err != nil {
		b.Fatal(err)
	}
	next, err := snap.Replace(repl)
	if err != nil {
		b.Fatal(err)
	}
	diff := xmlschema.DiffSnapshots(snap, next)
	b.Run("apply", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sh.index.Apply(next.Repository(), diff); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := candindex.Build(next.Repository(), candindex.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
