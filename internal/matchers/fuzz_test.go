package matchers_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/matchers/beam"
	"repro/internal/matchers/clustered"
	"repro/internal/matchers/topk"
	"repro/internal/matching"
	"repro/internal/xmlschema"
)

// fuzzReader hands out fuzz bytes, then zeros once they run out.
type fuzzReader []byte

func (r *fuzzReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

var fuzzNames = []string{"a", "ab", "b", "ba", "abc", "c"}

// fuzzTree builds a tree of size elements: each byte names the next
// element and picks its parent, or — with the high bit set — hangs it
// under the previous element, so long chains (deeper than any depth
// stretch) are as easy to reach as bushy trees.
func fuzzTree(r *fuzzReader, size int) *xmlschema.Element {
	nodes := []*xmlschema.Element{xmlschema.NewElement(fuzzNames[int(r.next())%len(fuzzNames)])}
	for len(nodes) < size {
		b := r.next()
		parent := nodes[len(nodes)-1]
		if b&0x80 == 0 {
			parent = nodes[int(b)%len(nodes)]
		}
		e := xmlschema.NewElement(fuzzNames[int(b>>3)%len(fuzzNames)])
		parent.Add(e)
		nodes = append(nodes, e)
	}
	return nodes[0]
}

// oracleMappings enumerates every assignment of the personal elements
// to elements of s by brute force and keeps the ones Problem.Valid
// accepts — an enumeration independent of the kernel's tree layout.
func oracleMappings(p *matching.Problem, s *xmlschema.Schema) []matching.Mapping {
	var out []matching.Mapping
	targets := make([]int, p.M())
	var rec func(pid int)
	rec = func(pid int) {
		if pid == p.M() {
			m := matching.Mapping{Schema: s.Name, Targets: append([]int(nil), targets...)}
			if p.Valid(m) {
				out = append(out, m)
			}
			return
		}
		for rid := 0; rid < s.Len(); rid++ {
			targets[pid] = rid
			rec(pid + 1)
		}
	}
	rec(0)
	return out
}

// prefixCosts returns the partial cost after each personal element,
// accumulated in assignment order from the public cost methods and the
// elements' own parent chains.
func prefixCosts(p *matching.Problem, s *xmlschema.Schema, m matching.Mapping) []float64 {
	out := make([]float64, len(m.Targets))
	c := 0.0
	for pid, rid := range m.Targets {
		c += p.NameCost(s, pid, rid)
		if par := p.ParentOf(pid); par >= 0 {
			c += p.EdgeCost(s.ByID(rid).Depth() - s.ByID(m.Targets[par]).Depth())
		}
		out[pid] = c
	}
	return out
}

// FuzzSearchKernel compares every matcher family on tiny random trees
// against a brute-force oracle built on Problem.Valid and Problem.Score:
// exhaustive and parallel return exactly the valid mappings scoring
// within δ; topk exactly those whose every prefix survives the margin
// projection; clustered exactly those whose every target lies in a
// selected cluster; beam a subset of at most width answers per schema,
// and the full set once the beam cannot overflow.
func FuzzSearchKernel(f *testing.F) {
	f.Add([]byte{2, 1, 7, 0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 3, 1, 0}, uint8(120), uint8(0), uint8(10))
	f.Add([]byte{3, 2, 8, 0, 1, 9, 17, 0x90, 0x91, 0x92, 5, 2, 1, 0x88, 6, 0x81, 4}, uint8(200), uint8(2), uint8(3))
	f.Add([]byte{1, 0, 9, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, uint8(255), uint8(0), uint8(0))
	f.Add([]byte{0, 2, 5, 1, 2, 3, 4, 6, 1, 1, 1, 1, 1, 1}, uint8(90), uint8(1), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, deltaB, stretchB, marginB uint8) {
		r := fuzzReader(data)
		personal, err := xmlschema.NewSchema("personal", fuzzTree(&r, 1+int(r.next())%4))
		if err != nil {
			t.Fatal(err)
		}
		repo := xmlschema.NewRepository()
		for i, n := 0, 1+int(r.next())%3; i < n; i++ {
			s, err := xmlschema.NewSchema(fmt.Sprintf("s%d", i), fuzzTree(&r, 1+int(r.next())%9))
			if err != nil {
				t.Fatal(err)
			}
			if err := repo.Add(s); err != nil {
				t.Fatal(err)
			}
		}
		cfg := matching.DefaultConfig()
		cfg.Scorer = engine.New(nil)
		cfg.MaxDepthStretch = 1 + int(stretchB)%3
		p, err := matching.NewProblem(personal, repo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		delta := float64(deltaB) / 255
		margin := float64(marginB) / 1000
		bound := delta + 1e-12

		ix, err := clustered.BuildIndex(repo, clustered.IndexConfig{Scorer: cfg.Scorer, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cm, err := clustered.New(ix, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		selected := make([]map[int]bool, p.M())
		for _, pe := range personal.Elements() {
			selected[pe.ID()] = map[int]bool{}
			for _, c := range cm.SelectedClusters(pe.Name) {
				selected[pe.ID()][c] = true
			}
		}

		// The oracle answer sets, one per exact family.
		var exh, tk, cl []matching.Answer
		for _, s := range repo.Schemas() {
			for _, m := range oracleMappings(p, s) {
				score, err := p.Score(m)
				if err != nil {
					t.Fatal(err)
				}
				prefix := prefixCosts(p, s, m)
				if prefix[len(prefix)-1] != score {
					t.Fatalf("%s: prefix cost %v != Score %v", m.Key(), prefix[len(prefix)-1], score)
				}
				if score > bound {
					continue
				}
				a := matching.Answer{Mapping: m, Score: score}
				exh = append(exh, a)
				keep := true
				for pid, c := range prefix {
					keep = keep && c+margin*float64(p.M()-pid-1) <= bound
				}
				if keep {
					tk = append(tk, a)
				}
				allowed := true
				for pid, rid := range m.Targets {
					allowed = allowed && selected[pid][ix.ClusterOfName(s.ByID(rid).Name)]
				}
				if allowed {
					cl = append(cl, a)
				}
			}
		}

		run := func(m matching.StatsMatcher) (*matching.AnswerSet, matching.SearchStats) {
			set, st, err := m.MatchStatsContext(context.Background(), p, delta)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			if st.Yielded != set.Len() {
				t.Fatalf("%s: Yielded %d but %d answers", m.Name(), st.Yielded, set.Len())
			}
			return set, st
		}
		same := func(name string, got *matching.AnswerSet, want []matching.Answer) {
			t.Helper()
			w := matching.NewAnswerSet(append([]matching.Answer(nil), want...)).All()
			g := got.All()
			if len(g) != len(w) {
				t.Fatalf("%s: %d answers, oracle %d", name, len(g), len(w))
			}
			for i := range g {
				if !g[i].Mapping.Equal(w[i].Mapping) || g[i].Score != w[i].Score {
					t.Fatalf("%s: rank %d is %s@%v, oracle %s@%v", name, i,
						g[i].Mapping.Key(), g[i].Score, w[i].Mapping.Key(), w[i].Score)
				}
			}
		}

		exSet, exStats := run(matching.Exhaustive{})
		same("exhaustive", exSet, exh)
		parSet, parStats := run(matching.ParallelExhaustive{Workers: 2})
		same("parallel", parSet, exh)
		if parStats != exStats {
			t.Fatalf("parallel stats %+v, exhaustive %+v", parStats, exStats)
		}
		tm, err := topk.New(margin)
		if err != nil {
			t.Fatal(err)
		}
		tkSet, _ := run(tm)
		same(tm.Name(), tkSet, tk)
		clSet, _ := run(cm)
		same(cm.Name(), clSet, cl)

		// No level holds more than 9^4 states, so this beam never drops one.
		wideBeam, err := beam.New(1 << 16)
		if err != nil {
			t.Fatal(err)
		}
		wbSet, _ := run(wideBeam)
		same("wide beam", wbSet, exh)
		narrow, err := beam.New(2)
		if err != nil {
			t.Fatal(err)
		}
		nbSet, _ := run(narrow)
		if err := nbSet.SubsetOf(exSet); err != nil {
			t.Fatalf("beam:2: %v", err)
		}
		perSchema := map[string]int{}
		for _, a := range nbSet.All() {
			if perSchema[a.Mapping.Schema]++; perSchema[a.Mapping.Schema] > 2 {
				t.Fatalf("beam:2 kept more than 2 answers in schema %s", a.Mapping.Schema)
			}
		}
	})
}
