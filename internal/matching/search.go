package matching

import (
	"context"
	"math"
	"sync"

	"repro/internal/xmlschema"
)

// SearchStats quantifies the work one enumeration performed — the
// efficiency side of the paper's efficiency/effectiveness trade-off.
type SearchStats struct {
	// Candidates is the number of (personal element, repository
	// element) assignments examined.
	Candidates int
	// Pruned counts branches cut by the threshold prune (or a policy's
	// projection of it).
	Pruned int
	// Yielded counts complete mappings produced.
	Yielded int
}

// Add accumulates other into s.
func (s *SearchStats) Add(other SearchStats) {
	s.Candidates += other.Candidates
	s.Pruned += other.Pruned
	s.Yielded += other.Yielded
}

// CancelCheckMask paces the cancellation checks of every search hot
// loop: ctx.Err() is read once every CancelCheckMask+1 candidates, so
// the per-node path pays an increment and a bitmask test, and 1024
// candidates (microseconds) bound the cancellation latency.
const CancelCheckMask = 1<<10 - 1

// Policy is a pruning policy on top of the kernel's admissible
// threshold prune; a nil *Policy is the exhaustive system S1.
type Policy struct {
	// Margin cuts a branch once cost + Margin·(personal elements still
	// unassigned) exceeds δ — the top-k family's projection.
	Margin float64
	// When Classes is non-nil, personal element pid may take element
	// rid of schema s only if Allowed[pid] has Classes(s)[rid] — the
	// cluster-restricted family's rule.
	Allowed []ClassSet
	Classes func(s *xmlschema.Schema) []int32
}

// ClassSet is a bitset over non-negative class indices.
type ClassSet []uint64

// NewClassSet returns an empty set for classes 0..n-1.
func NewClassSet(n int) ClassSet { return make(ClassSet, (n+63)/64) }

// Add inserts class c < n.
func (cs ClassSet) Add(c int) { cs[c>>6] |= 1 << (uint(c) & 63) }

// Has reports whether c is in the set.
func (cs ClassSet) Has(c int32) bool {
	return c >= 0 && int(c>>6) < len(cs) && cs[c>>6]&(1<<(uint(c)&63)) != 0
}

// SchemaView is one repository schema as the search reads it: its tree
// layout (xmlschema.Schema.Layout) and the problem's cost row for it,
// fetched once per schema instead of once per candidate.
type SchemaView struct {
	Depth, End []int32
	table      []float64
	n          int
	w, mf      float64
	edge       []float64
	stretch    int32
}

// View returns the search view of s, a schema of p.Repo.
func (p *Problem) View(s *xmlschema.Schema) SchemaView {
	depth, end := s.Layout()
	return SchemaView{Depth: depth, End: end, table: p.nameCost[s.Name], n: s.Len(),
		w: p.cfg.NameWeight, mf: float64(p.m), edge: p.edgeW,
		stretch: int32(min(p.cfg.MaxDepthStretch, math.MaxInt32/2))}
}

// NameCost is bit for bit Problem.NameCost for the viewed schema.
func (v *SchemaView) NameCost(pid, rid int) float64 {
	return v.w * v.table[pid*v.n+rid] / v.mf
}

// EdgeCost is Problem.EdgeCost for a stretch 1 ≤ d ≤ MaxDepthStretch.
func (v *SchemaView) EdgeCost(d int32) float64 { return v.edge[d] }

// MaxDepth returns the deepest level a child of an element mapped to
// rid may map to.
func (v *SchemaView) MaxDepth(rid int) int32 { return v.Depth[rid] + v.stretch }

// scratch is pooled per-worker search state (the
// similarity.KernelSession idiom), returned with used all false.
type scratch struct {
	targets []int
	used    []bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Enumerate runs the search kernel (its contract is in the package
// documentation) over schema s, calling yield for every mapping of the
// search space into s that survives pol and costs ≤ delta. The yielded
// Targets alias kernel scratch, valid only during the call; a Collector
// retains them. On cancellation, seen on entry or at a periodic poll,
// the search unwinds and returns ctx.Err() with the stats so far.
// Schemas the candidate filter proves answer-free are skipped.
func Enumerate(ctx context.Context, p *Problem, s *xmlschema.Schema, delta float64, pol *Policy, yield func(Mapping, float64)) (SearchStats, error) {
	done := ctx.Done() // nil for background contexts: checks compile to two ALU ops
	if done != nil && ctx.Err() != nil {
		return SearchStats{}, ctx.Err()
	}
	if p.CandidateSkip(s.Name, delta) {
		return SearchStats{}, nil
	}
	sc := scratchPool.Get().(*scratch)
	if cap(sc.targets) < p.m {
		sc.targets = make([]int, p.m)
	}
	if cap(sc.used) < s.Len() {
		sc.used = make([]bool, s.Len())
	}
	k := kernel{SchemaView: p.View(s), ctx: ctx, done: done, parent: p.parent, schema: s.Name,
		bound: delta + 1e-12, targets: sc.targets[:p.m], used: sc.used[:s.Len()]}
	if pol != nil {
		k.margin = pol.Margin
		if pol.Classes != nil {
			k.allowed, k.classes = pol.Allowed, pol.Classes(s)
		}
	}
	k.assign(0, 0, yield)
	scratchPool.Put(sc)
	if k.stopped {
		return k.st, ctx.Err()
	}
	return k.st, nil
}

// kernel is one Enumerate call's state, on the caller's stack; yield
// is an argument, not a field, so a caller's closure stays on its own.
type kernel struct {
	SchemaView
	ctx     context.Context
	done    <-chan struct{}
	parent  []int
	schema  string
	bound   float64 // delta + 1e-12
	margin  float64
	allowed []ClassSet
	classes []int32
	targets []int
	used    []bool
	st      SearchStats
	stopped bool
}

// assign tries every candidate for personal element pid at partial
// cost cost, recursing on the survivors.
func (k *kernel) assign(pid int, cost float64, yield func(Mapping, float64)) {
	if pid == len(k.targets) {
		k.st.Yielded++
		yield(Mapping{Schema: k.schema, Targets: k.targets}, cost)
		return
	}
	depth, end, used, classes := k.Depth, k.End, k.used, k.classes
	row := k.table[pid*k.n : (pid+1)*k.n]
	proj := k.margin * float64(len(k.targets)-pid-1) // 0 for S1: c+0 == c
	var allow ClassSet
	if classes != nil {
		allow = k.allowed[pid]
	}
	// The root may map to any element, a child to the descendants of its
	// parent's image within the depth stretch.
	par := k.parent[pid]
	lo, hi, pdepth, maxDepth := 0, k.n, int32(0), int32(math.MaxInt32)
	if par >= 0 {
		pr := k.targets[par]
		lo, hi, pdepth, maxDepth = pr+1, int(end[pr]), depth[pr], k.MaxDepth(pr)
	}
	for rid := lo; rid < hi; rid++ {
		d := depth[rid]
		if d > maxDepth {
			rid = int(end[rid]) - 1 // skip the too-deep subtree
			continue
		}
		if used[rid] || (classes != nil && !allow.Has(classes[rid])) {
			continue
		}
		k.st.Candidates++
		if k.done != nil && k.st.Candidates&CancelCheckMask == 0 && k.ctx.Err() != nil {
			k.stopped = true
			return
		}
		c := cost + k.w*row[rid]/k.mf
		if par >= 0 {
			c += k.edge[d-pdepth]
		}
		if c+proj > k.bound {
			k.st.Pruned++
			continue // contributions only grow
		}
		used[rid] = true
		k.targets[pid] = rid
		k.assign(pid+1, c, yield)
		used[rid] = false
		if k.stopped {
			return
		}
	}
}

// Collector retains yielded answers, copying their targets into a slab
// shared by the whole search: A answers cost O(log A) allocations.
type Collector struct {
	answers []Answer
	slab    []int
}

// Add retains one answer; pass it to Enumerate as yield.
func (c *Collector) Add(m Mapping, score float64) {
	n := len(m.Targets)
	if len(c.slab) < n {
		// Each chunk holds at least as many mappings as all before it.
		c.slab = make([]int, max(len(c.answers), 16)*n)
	}
	t := c.slab[:n:n]
	c.slab = c.slab[n:]
	copy(t, m.Targets)
	c.answers = append(c.answers, Answer{Mapping: Mapping{Schema: m.Schema, Targets: t}, Score: score})
}

// Answers returns the answers collected so far, in yield order.
func (c *Collector) Answers() []Answer { return c.answers }

// Set sorts the collected answers into an AnswerSet. The kernel yields
// a mapping at most once, so unlike NewAnswerSet it skips the dedup
// pass. The Collector must not be used afterwards.
func (c *Collector) Set() *AnswerSet { return sortedSet(c.answers) }

// MatchPolicy runs Enumerate under pol over the repository's schemas in
// order and collects the answer set — the serial search of the
// exhaustive system (nil pol), top-k and cluster-restricted matchers.
// On cancellation it returns ctx.Err() and no answers.
func MatchPolicy(ctx context.Context, p *Problem, delta float64, pol *Policy) (*AnswerSet, SearchStats, error) {
	var col Collector
	var total SearchStats
	for _, s := range p.Repo.Schemas() {
		st, err := Enumerate(ctx, p, s, delta, pol, col.Add)
		total.Add(st)
		if err != nil {
			return nil, total, err
		}
	}
	return col.Set(), total, nil
}
