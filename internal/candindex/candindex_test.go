package candindex

import (
	"fmt"
	"testing"

	"repro/internal/similarity"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/xmlschema"
)

// soundnessEps is the slack a bound may be under the true similarity by
// before the test calls it unsound — the same candEps-scale tolerance
// the matching layer prunes with.
const soundnessEps = 1e-9

// corpusNames collects the distinct element names of a synthetic
// scenario, personal and repository side.
func corpusNames(t *testing.T, seed uint64) (personal []string, repo *xmlschema.Repository) {
	t.Helper()
	cfg := synth.DefaultConfig(seed)
	cfg.NumSchemas = 40
	sc, err := synth.Generate(synth.PersonalLibrary(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, e := range sc.Personal.Elements() {
		if !seen[e.Name] {
			seen[e.Name] = true
			personal = append(personal, e.Name)
		}
	}
	// A few adversarial shapes the generator rarely emits.
	personal = append(personal, "x", "", "Price_List", "zzzzzz", "author")
	return personal, sc.Repo
}

// TestBoundSoundness is the admissibility property behind every pruning
// decision: for every registry metric whose compiled bounder is
// non-trivial, bound(a, b) + eps ≥ metric(a, b) over a synthetic corpus
// of name pairs.
func TestBoundSoundness(t *testing.T) {
	names := append(similarity.MetricNames(), "default")
	for _, mn := range names {
		mn := mn
		t.Run(mn, func(t *testing.T) {
			t.Parallel()
			metric, err := similarity.ByName(mn)
			if err != nil {
				t.Fatal(err)
			}
			personal, repo := corpusNames(t, 7)
			ix, err := Build(repo, Config{Metric: metric})
			if err != nil {
				t.Fatal(err)
			}
			bnd := ix.Prepare(personal)
			if bnd == nil {
				if ix.Boundable() {
					t.Fatal("Boundable() true but Prepare returned nil")
				}
				t.Skipf("metric %s has no non-trivial bound", mn)
			}
			checked := 0
			for _, s := range repo.Schemas() {
				row := make([]float64, s.Len())
				for pi, pn := range personal {
					if !bnd.BoundRow(pi, s, row) {
						t.Fatalf("BoundRow refused schema %s it indexed", s.Name)
					}
					for _, re := range s.Elements() {
						got := row[re.ID()]
						want := metric.Similarity(pn, re.Name)
						if got+soundnessEps < want {
							t.Fatalf("unsound bound for (%q, %q): bound %v < sim %v",
								pn, re.Name, got, want)
						}
						if got < 0 || got > 1+soundnessEps {
							t.Fatalf("bound for (%q, %q) out of range: %v", pn, re.Name, got)
						}
						checked++
					}
				}
			}
			if checked == 0 {
				t.Fatal("no pairs checked")
			}
		})
	}
}

// TestBoundsAreUseful guards against the trivial-bound failure mode of
// the soundness test: for the default metric the bounds must actually
// separate dissimilar pairs, not return 1 everywhere.
func TestBoundsAreUseful(t *testing.T) {
	personal, repo := corpusNames(t, 11)
	ix, err := Build(repo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bnd := ix.Prepare(personal)
	if bnd == nil {
		t.Fatal("default metric must be boundable")
	}
	below := 0
	total := 0
	for _, s := range repo.Schemas() {
		row := make([]float64, s.Len())
		for pi := range personal {
			if !bnd.BoundRow(pi, s, row) {
				t.Fatalf("BoundRow refused schema %s", s.Name)
			}
			for _, v := range row {
				total++
				if v < 0.8 {
					below++
				}
			}
		}
	}
	if frac := float64(below) / float64(total); frac < 0.2 {
		t.Fatalf("bounds too loose to prune: only %.1f%% of %d pairs bounded below 0.8", 100*frac, total)
	}
}

// randomChurn applies n random snapshot mutations and returns the
// snapshot after each step.
func randomChurn(t *testing.T, snap *xmlschema.Snapshot, rng *stats.RNG, n int) []*xmlschema.Snapshot {
	t.Helper()
	var steps []*xmlschema.Snapshot
	serial := 0
	for step := 0; step < n; step++ {
		cur := snap
		var next *xmlschema.Snapshot
		var err error
		switch rng.Intn(3) {
		case 0: // add
			root := xmlschema.NewElement("added_node").Add(
				xmlschema.NewElement(fmt.Sprintf("extra_%d", serial)),
				xmlschema.NewElement("price"),
			)
			var sch *xmlschema.Schema
			sch, err = xmlschema.NewSchema(fmt.Sprintf("churn%04d", serial), root)
			if err != nil {
				t.Fatal(err)
			}
			serial++
			next, err = cur.Add(sch)
		case 1: // remove (keep at least 2 schemas)
			if cur.Len() < 3 {
				continue
			}
			victim := cur.Schemas()[rng.Intn(cur.Len())]
			next, err = cur.Remove(victim.Name)
		default: // replace with a structurally different clone
			victim := cur.Schemas()[rng.Intn(cur.Len())]
			root := xmlschema.NewElement("swapped_root").Add(
				xmlschema.NewElement(fmt.Sprintf("swap_%d", serial)),
			)
			serial++
			var repl *xmlschema.Schema
			repl, err = xmlschema.NewSchema(victim.Name, root)
			if err != nil {
				t.Fatal(err)
			}
			next, err = cur.Replace(repl)
		}
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, next)
		snap = next
	}
	return steps
}

// sameBounds asserts two indexes over the same repository serve
// identical bounds for every (probe, element) pair — the behavioral
// equality that matters, independent of slot assignment.
func sameBounds(t *testing.T, a, b *Index, probes []string) {
	t.Helper()
	if a.DistinctNames() != b.DistinctNames() {
		t.Fatalf("distinct names diverge: %d vs %d", a.DistinctNames(), b.DistinctNames())
	}
	ba, bb := a.Prepare(probes), b.Prepare(probes)
	if (ba == nil) != (bb == nil) {
		t.Fatal("one index prepared a bounder, the other did not")
	}
	if ba == nil {
		return
	}
	for _, s := range a.Repository().Schemas() {
		rowA := make([]float64, s.Len())
		rowB := make([]float64, s.Len())
		for pi := range probes {
			okA := ba.BoundRow(pi, s, rowA)
			okB := bb.BoundRow(pi, s, rowB)
			if !okA || !okB {
				t.Fatalf("BoundRow refused schema %s: applied=%v scratch=%v", s.Name, okA, okB)
			}
			for rid := range rowA {
				if rowA[rid] != rowB[rid] {
					t.Fatalf("bound diverges at schema %s probe %q rid %d: applied %v, scratch %v",
						s.Name, probes[pi], rid, rowA[rid], rowB[rid])
				}
			}
		}
	}
}

// TestApplyMatchesScratch is the incremental-maintenance regression: an
// index advanced through random diff sequences must serve bounds
// identical to one built from scratch over the final repository.
func TestApplyMatchesScratch(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := synth.DefaultConfig(seed)
			cfg.NumSchemas = 25
			sc, err := synth.Generate(synth.PersonalLibrary(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := xmlschema.NewSnapshot(sc.Repo)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Build(snap.Repository(), Config{})
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(seed * 977)
			steps := randomChurn(t, snap, rng, 30)
			cur := snap
			for _, next := range steps {
				diff := xmlschema.DiffSnapshots(cur, next)
				applied, err := ix.Apply(next.Repository(), diff)
				if err != nil {
					t.Fatal(err)
				}
				ix = applied
				cur = next
			}
			final := cur
			if ix.Repository() != final.Repository() {
				t.Fatal("applied index is not over the final repository")
			}
			scratch, err := Build(final.Repository(), Config{})
			if err != nil {
				t.Fatal(err)
			}
			probes := []string{"book", "title", "author", "price", "swapped_root", "added_node", "nonexistent_zz"}
			sameBounds(t, ix, scratch, probes)
		})
	}
}

// TestApplyRejectsForeignDiff: a diff that does not describe the
// index's generation must error, not corrupt.
func TestApplyRejectsForeignDiff(t *testing.T) {
	_, repo := corpusNames(t, 3)
	snap, err := xmlschema.NewSnapshot(repo)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(repo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	victim := snap.Schemas()[0]
	next, err := snap.Remove(victim.Name)
	if err != nil {
		t.Fatal(err)
	}
	diff := xmlschema.DiffSnapshots(snap, next)
	// Applying the same removal twice: the second application removes a
	// schema the (advanced) index no longer holds.
	applied, err := ix.Apply(next.Repository(), diff)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applied.Apply(next.Repository(), diff); err == nil {
		t.Fatal("re-applying a consumed diff must fail")
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := Build(xmlschema.NewRepository(), Config{}); err == nil {
		t.Fatal("Build over an empty repository must fail")
	}
	if _, err := Build(nil, Config{}); err == nil {
		t.Fatal("Build over a nil repository must fail")
	}
}

// TestBounderRejectsForeignSchema: the pointer guard behind rebase
// safety — a schema object the index never saw yields false.
func TestBounderRejectsForeignSchema(t *testing.T) {
	personal, repo := corpusNames(t, 9)
	ix, err := Build(repo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bnd := ix.Prepare(personal)
	if bnd == nil {
		t.Fatal("default metric must be boundable")
	}
	orig := repo.Schemas()[0]
	clone := orig.Clone()
	row := make([]float64, clone.Len())
	if bnd.BoundRow(0, clone, row) {
		t.Fatal("BoundRow accepted a cloned schema object it never indexed")
	}
	if !bnd.BoundRow(0, orig, row) {
		t.Fatal("BoundRow refused the exact schema object it indexed")
	}
}
