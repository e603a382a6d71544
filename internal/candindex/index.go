package candindex

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/matching"
	"repro/internal/similarity"
	"repro/internal/xmlschema"
)

// Config parameterizes Build.
type Config struct {
	// Metric is the similarity metric the bounds must be admissible
	// for — pass the exact metric the problem's Scorer computes (e.g.
	// engine.Memo.Metric()). Nil selects similarity.DefaultNameMetric.
	Metric similarity.Metric
	// Profiles, when non-nil, is a profile interner to share — pass the
	// scoring engine's (engine.Memo.Profiles()) so index and kernels
	// profile each distinct name once between them. It is only adopted
	// when its synonym dictionary is the one discovered in Metric;
	// otherwise a private interner is built, so a mismatched interner
	// can never change class features.
	Profiles *similarity.Interner
}

// Index is an inverted q-gram index over the distinct element names of
// one repository generation, plus per-name feature profiles. For a
// personal-schema name it serves, in one postings sweep, a similarity
// upper bound against every repository name — the input of the
// candidate-filtered cost-table build in internal/matching.
//
// An Index is immutable; Apply produces the next generation by
// copy-on-write, sharing untouched postings lists, profiles, and
// per-schema element maps with its parent, mirroring
// clustered.Index.Apply.
type Index struct {
	repo       *xmlschema.Repository
	metric     similarity.Metric
	bnd        boundFn
	nontrivial bool
	in         *similarity.Interner

	// names: slot-addressed distinct-name table. refs counts element
	// occurrences per name, postings map interned gram ID → (slot, gram
	// count) lists over live names.
	profs    []*profile
	refs     []int32
	free     []uint32
	slotOf   map[string]uint32
	postings map[uint32][]posting

	// schemas maps schema name → per-element slot assignment, pinned to
	// the exact schema object indexed.
	schemas map[string]*schemaIndex

	// prep memoizes prepared bounders per personal-name set, so repeated
	// problem builds against one index generation pay the bound
	// computation once. Shared across the shallow copies an empty-diff
	// Apply produces (identical postings ⇒ identical bounds).
	prep *prepCache
}

// prepCache is the per-generation bounder memo. Bounded: serving many
// distinct personal schemas (multi-tenant load) evicts arbitrarily
// rather than growing without limit.
type prepCache struct {
	mu sync.Mutex
	m  map[string]*bounder
}

const prepCacheCap = 8

func newPrepCache() *prepCache {
	return &prepCache{m: make(map[string]*bounder)}
}

type posting struct {
	slot  uint32
	count uint16
}

type schemaIndex struct {
	schema *xmlschema.Schema
	slot   []uint32 // element ID → name slot
}

// Build indexes every element name of repo.
func Build(repo *xmlschema.Repository, cfg Config) (*Index, error) {
	metric := cfg.Metric
	if metric == nil {
		metric = similarity.DefaultNameMetric()
	}
	bnd, nontrivial, dict := compile(metric)
	in := cfg.Profiles
	if in == nil || in.Dict() != dict {
		in = similarity.NewInterner(dict)
	}
	return build(repo, metric, bnd, nontrivial, in)
}

func build(repo *xmlschema.Repository, metric similarity.Metric, bnd boundFn, nontrivial bool, in *similarity.Interner) (*Index, error) {
	if repo == nil || repo.Len() == 0 {
		return nil, fmt.Errorf("candindex: empty repository")
	}
	ix := &Index{
		repo:       repo,
		metric:     metric,
		bnd:        bnd,
		nontrivial: nontrivial,
		in:         in,
		slotOf:     make(map[string]uint32),
		postings:   make(map[uint32][]posting),
		schemas:    make(map[string]*schemaIndex, repo.Len()),
		prep:       newPrepCache(),
	}
	for _, s := range repo.Schemas() {
		ix.schemas[s.Name] = ix.indexSchema(s)
	}
	return ix, nil
}

// indexSchema interns every element name of s and bumps its refcount,
// inserting postings for names new to the index.
func (ix *Index) indexSchema(s *xmlschema.Schema) *schemaIndex {
	sx := &schemaIndex{schema: s, slot: make([]uint32, s.Len())}
	for _, e := range s.Elements() {
		sx.slot[e.ID()] = ix.addName(e.Name, nil)
	}
	return sx
}

// addName increments the refcount of name, allocating a slot and
// posting its grams on the 0→1 transition. copied tracks postings lists
// already privatized during one Apply; nil means the maps are not
// shared and lists may be appended in place.
func (ix *Index) addName(name string, copied map[uint32]bool) uint32 {
	if slot, ok := ix.slotOf[name]; ok {
		ix.refs[slot]++
		return slot
	}
	p := ix.in.Profile(name)
	var slot uint32
	if n := len(ix.free); n > 0 {
		slot = ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.profs[slot] = p
		ix.refs[slot] = 1
	} else {
		slot = uint32(len(ix.profs))
		ix.profs = append(ix.profs, p)
		ix.refs = append(ix.refs, 1)
	}
	ix.slotOf[name] = slot
	eachGramRun(p.Grams, func(g uint32, count int) {
		list := ix.postings[g]
		if copied != nil && !copied[g] {
			copied[g] = true
			list = append(make([]posting, 0, len(list)+1), list...)
		}
		ix.postings[g] = append(list, posting{slot: slot, count: uint16(min(count, 1<<16-1))})
	})
	return slot
}

// dropName decrements the refcount of name, releasing the slot and its
// postings on the 1→0 transition. It returns an error when the index
// does not hold the name — the diff does not describe this generation.
func (ix *Index) dropName(name string, copied map[uint32]bool) error {
	slot, ok := ix.slotOf[name]
	if !ok {
		return fmt.Errorf("candindex: diff removes name %q the index does not hold", name)
	}
	ix.refs[slot]--
	if ix.refs[slot] > 0 {
		return nil
	}
	p := ix.profs[slot]
	eachGramRun(p.Grams, func(g uint32, _ int) {
		list := ix.postings[g]
		if copied != nil && !copied[g] {
			copied[g] = true
			list = append(make([]posting, 0, len(list)), list...)
		}
		w := list[:0]
		for _, pst := range list {
			if pst.slot != slot {
				w = append(w, pst)
			}
		}
		if len(w) == 0 {
			delete(ix.postings, g)
		} else {
			ix.postings[g] = w
		}
	})
	delete(ix.slotOf, name)
	ix.profs[slot] = nil
	ix.refs[slot] = 0
	ix.free = append(ix.free, slot)
	return nil
}

// eachGramRun calls fn once per distinct gram of a sorted multiset with
// its multiplicity.
func eachGramRun(grams []uint32, fn func(g uint32, count int)) {
	for i := 0; i < len(grams); {
		j := i + 1
		for j < len(grams) && grams[j] == grams[i] {
			j++
		}
		fn(grams[i], j-i)
		i = j
	}
}

// Apply returns the index for the repository that diff turns this
// index's repository into, reusing every untouched posting list,
// profile, and schema map. It mirrors clustered.Index.Apply: the
// receiver is immutable and stays valid, and a diff that does not
// describe this generation (removing unknown names or schemas) is an
// error rather than silent corruption.
func (ix *Index) Apply(next *xmlschema.Repository, diff xmlschema.Diff) (*Index, error) {
	if next == nil || next.Len() == 0 {
		return nil, fmt.Errorf("candindex: diff empties the repository")
	}
	if diff.Empty() {
		// Share everything, but pin the result to the new repository so
		// callers may compare Repository() against the generation they
		// serve (the maps are immutable after build; sharing is safe).
		nix := *ix
		nix.repo = next
		return &nix, nil
	}
	nix := &Index{
		repo:       next,
		metric:     ix.metric,
		bnd:        ix.bnd,
		nontrivial: ix.nontrivial,
		in:         ix.in,
		profs:      append([]*profile(nil), ix.profs...),
		refs:       append([]int32(nil), ix.refs...),
		free:       append([]uint32(nil), ix.free...),
		slotOf:     make(map[string]uint32, len(ix.slotOf)),
		postings:   make(map[uint32][]posting, len(ix.postings)),
		schemas:    make(map[string]*schemaIndex, len(ix.schemas)),
		prep:       newPrepCache(),
	}
	for k, v := range ix.slotOf {
		nix.slotOf[k] = v
	}
	for g, list := range ix.postings {
		nix.postings[g] = list
	}
	for name, sx := range ix.schemas {
		nix.schemas[name] = sx
	}
	copied := make(map[uint32]bool)
	drop := func(s *xmlschema.Schema) error {
		if old, ok := nix.schemas[s.Name]; !ok || old.schema != s {
			return fmt.Errorf("candindex: diff removes schema %q the index does not hold", s.Name)
		}
		var err error
		s.Walk(func(e *xmlschema.Element) bool {
			if err = nix.dropName(e.Name, copied); err != nil {
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		delete(nix.schemas, s.Name)
		return nil
	}
	add := func(s *xmlschema.Schema) {
		sx := &schemaIndex{schema: s, slot: make([]uint32, s.Len())}
		for _, e := range s.Elements() {
			sx.slot[e.ID()] = nix.addName(e.Name, copied)
		}
		nix.schemas[s.Name] = sx
	}
	for _, s := range diff.Removed {
		if err := drop(s); err != nil {
			return nil, err
		}
	}
	for _, ch := range diff.Replaced {
		if err := drop(ch.Old); err != nil {
			return nil, err
		}
		add(ch.New)
	}
	for _, s := range diff.Added {
		add(s)
	}
	if len(nix.slotOf) == 0 {
		return nil, fmt.Errorf("candindex: diff empties the repository")
	}
	return nix, nil
}

// Repository returns the repository generation this index describes.
func (ix *Index) Repository() *xmlschema.Repository { return ix.repo }

// MetricName implements matching.CandidateFilter.
func (ix *Index) MetricName() string { return ix.metric.Name() }

// Boundable reports whether the metric admits a non-trivial bound; a
// false value means Prepare returns nil and the index never prunes.
func (ix *Index) Boundable() bool { return ix.nontrivial }

// DistinctNames returns the number of live distinct names.
func (ix *Index) DistinctNames() int { return len(ix.slotOf) }

// Prepare implements matching.CandidateFilter: one postings sweep plus
// one bounder evaluation per (personal name, distinct repository name)
// pair, amortized across every schema's BoundRow calls — and memoized
// per personal-name set, so every problem build after the first against
// this generation reuses the prepared bounder (including its per-schema
// cost-bound tables; see SchemaLB).
func (ix *Index) Prepare(personalNames []string) matching.CandidateBounder {
	if !ix.nontrivial {
		return nil
	}
	key := strings.Join(personalNames, "\x00")
	ix.prep.mu.Lock()
	b, ok := ix.prep.m[key]
	ix.prep.mu.Unlock()
	if ok {
		return b
	}
	b = ix.prepare(personalNames)
	ix.prep.mu.Lock()
	if len(ix.prep.m) >= prepCacheCap {
		for k := range ix.prep.m {
			delete(ix.prep.m, k)
			break
		}
	}
	ix.prep.m[key] = b
	ix.prep.mu.Unlock()
	return b
}

// prepare computes a bounder from scratch: per-slot similarity bounds
// for every personal name, then per-schema cost lower-bound tables with
// their row-min sums — the exact values the filtered table build needs,
// precomputed once per (personal names, generation) pair.
func (ix *Index) prepare(personalNames []string) *bounder {
	m := len(personalNames)
	bounds := make([][]float64, m)
	cache := make(map[string][]float64, m)
	for i, name := range personalNames {
		if b, ok := cache[name]; ok {
			bounds[i] = b
			continue
		}
		b := ix.boundAll(name)
		cache[name] = b
		bounds[i] = b
	}
	b := &bounder{ix: ix, bounds: bounds, lb: make(map[string]*schemaLB, len(ix.schemas))}
	for name, sx := range ix.schemas {
		n := len(sx.slot)
		lb := make([]float64, m*n)
		sum := 0.0
		for pi := 0; pi < m; pi++ {
			bv := bounds[pi]
			rowMin := 2.0
			base := pi * n
			for rid, slot := range sx.slot {
				c := 1 - bv[slot]
				if c < 0 {
					c = 0
				}
				lb[base+rid] = c
				if c < rowMin {
					rowMin = c
				}
			}
			sum += rowMin
		}
		b.lb[name] = &schemaLB{schema: sx.schema, lb: lb, sum: sum}
	}
	return b
}

// boundAll computes the upper bound of name against every live slot.
func (ix *Index) boundAll(name string) []float64 {
	p := ix.in.Profile(name)
	inter := make([]int32, len(ix.profs))
	eachGramRun(p.Grams, func(g uint32, count int) {
		for _, pst := range ix.postings[g] {
			inter[pst.slot] += int32(min(count, int(pst.count)))
		}
	})
	out := make([]float64, len(ix.profs))
	for slot, rp := range ix.profs {
		if rp != nil && ix.refs[slot] > 0 {
			out[slot] = ix.bnd(p, rp, int(inter[slot]))
		}
	}
	return out
}

// bounder implements matching.CandidateBounder (and the
// matching.CandidateTableBounder fast path) over prepared per-slot
// bound vectors and per-schema cost-bound tables. It is immutable after
// prepare and safe for concurrent use.
type bounder struct {
	ix     *Index
	bounds [][]float64
	lb     map[string]*schemaLB
}

// schemaLB is one schema's precomputed cost lower-bound table
// (lb[pi*n+rid] = max(0, 1 − bound)) and the sum over personal elements
// of the per-row minimum — the schema-skip statistic. The schema
// pointer pins the entry to the exact object indexed.
type schemaLB struct {
	schema *xmlschema.Schema
	lb     []float64
	sum    float64
}

// SchemaLB implements matching.CandidateTableBounder: the precomputed
// cost lower-bound table and row-min sum for s. The returned slice is
// shared across problem builds and must not be mutated. The pointer
// check mirrors BoundRow's staleness guard.
func (b *bounder) SchemaLB(s *xmlschema.Schema) ([]float64, float64, bool) {
	e := b.lb[s.Name]
	if e == nil || e.schema != s {
		return nil, 0, false
	}
	return e.lb, e.sum, true
}

// BoundRow implements matching.CandidateBounder. The pointer check
// makes stale indexes safe: a rebased problem holding schemas this
// index never saw gets false and falls back to exhaustive scoring.
func (b *bounder) BoundRow(pi int, s *xmlschema.Schema, out []float64) bool {
	sx := b.ix.schemas[s.Name]
	if sx == nil || sx.schema != s {
		return false
	}
	bv := b.bounds[pi]
	for rid, slot := range sx.slot {
		out[rid] = bv[slot]
	}
	return true
}
