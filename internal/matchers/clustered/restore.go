// Index persistence. State exports the part of an Index that cannot
// be recomputed cheaply — the medoid set the clustering fixed and the
// per-name membership — and Restore rebuilds a serving Index from it
// over a recovered repository. The trust discipline mirrors
// Apply/Rebase parity across the process boundary: membership is the
// deterministic function "name → nearest medoid", so Restore verifies
// every persisted assignment against that rule with the live scorer
// and rejects the whole state on the first divergence (a state written
// under a different metric, or bit-rotted past its checksums, must not
// serve). A fresh BuildIndex is NOT the right reference here: after
// incremental churn the name population differs from the one the
// medoids were fit on, so re-clustering would pick different medoids
// and flag perfectly healthy persisted state.

package clustered

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/xmlschema"
)

// State is the portable form of an Index: everything Restore needs to
// reconstruct a serving index over the same repository content,
// independent of process or machine. It is a value object — safe to
// serialize field by field.
type State struct {
	// K, Seed, Workers and RebuildFraction reproduce the build
	// configuration, so a restored index re-clusters (on drift) exactly
	// as the original would have.
	K               int
	Seed            uint64
	Workers         int
	RebuildFraction float64
	// Silhouette is the quality of the last full build, carried for
	// reports only.
	Silhouette float64
	// BaseNames and Drift restore the rebuild-threshold bookkeeping, so
	// a restart does not reset accumulated churn toward re-clustering.
	BaseNames int
	Drift     int
	// MedoidNames is the fixed medoid set, indexed by cluster. A medoid
	// name may no longer occur in the repository (incremental churn
	// keeps the medoid set while names leave) — it still anchors its
	// cluster.
	MedoidNames []string
	// Assign maps every distinct element name of the repository to its
	// cluster.
	Assign map[string]int
}

// State exports the index in portable form. The returned value shares
// nothing with the index and may be serialized or mutated freely.
func (ix *Index) State() *State {
	st := &State{
		K:               ix.clustering.K,
		Seed:            ix.cfg.Seed,
		Workers:         ix.cfg.Workers,
		RebuildFraction: ix.cfg.RebuildFraction,
		Silhouette:      ix.silhouette,
		BaseNames:       ix.baseNames,
		Drift:           ix.drift,
		MedoidNames:     append([]string(nil), ix.medoidNames...),
		Assign:          make(map[string]int, len(ix.nameCluster)),
	}
	for n, c := range ix.nameCluster {
		st.Assign[n] = c
	}
	return st
}

// Restore rebuilds a serving Index over repo from a persisted State.
// The state must describe exactly repo's distinct-name population —
// missing or surplus names fail — and every assignment is verified
// against the nearest-medoid rule with scorer (nil selects a fresh
// memoized engine): the same membership discipline Rebase rebuilds and
// ParityCheck enforces, now applied to state that crossed a process
// boundary. Any divergence rejects the state; the caller falls back to
// a lazy from-scratch build.
func Restore(repo *xmlschema.Repository, st State, scorer engine.Scorer) (*Index, error) {
	if repo == nil {
		return nil, fmt.Errorf("clustered: nil repository")
	}
	if st.K < 1 || st.K != len(st.MedoidNames) {
		return nil, fmt.Errorf("clustered: restore state has K=%d with %d medoids", st.K, len(st.MedoidNames))
	}
	nameCount := countNames(repo)
	if len(nameCount) == 0 {
		return nil, fmt.Errorf("clustered: empty repository")
	}
	if len(nameCount) != len(st.Assign) {
		return nil, fmt.Errorf("clustered: restore state assigns %d names, repository has %d",
			len(st.Assign), len(nameCount))
	}
	if scorer == nil {
		scorer = engine.New(nil)
	}
	names := sortedNames(nameCount)
	nameCluster := make(map[string]int, len(names))
	assign := make([]int, len(names))
	for i, n := range names {
		c, ok := st.Assign[n]
		if !ok {
			return nil, fmt.Errorf("clustered: restore state misses repository name %q", n)
		}
		if c < 0 || c >= st.K {
			return nil, fmt.Errorf("clustered: restore state assigns %q to cluster %d of %d", n, c, st.K)
		}
		// The parity self-check: persisted membership must equal the
		// nearest-medoid assignment the live scorer computes.
		if want := cluster.NearestMedoid(n, st.MedoidNames, scorer); want != c {
			return nil, fmt.Errorf("clustered: restored membership of %q is cluster %d, nearest medoid is %d", n, c, want)
		}
		nameCluster[n] = c
		assign[i] = c
	}
	medoidNames := append([]string(nil), st.MedoidNames...)
	// Medoid item indices are only reconstructible for medoids still in
	// the name population; the index never reads them after build, so
	// absent ones stay -1.
	medoids := make([]int, st.K)
	for c := range medoids {
		medoids[c] = -1
	}
	for i, n := range names {
		for c, mn := range medoidNames {
			if n == mn {
				medoids[c] = i
			}
		}
	}
	baseNames := st.BaseNames
	if baseNames < 1 {
		baseNames = len(names)
	}
	ix := &Index{
		repo:        repo,
		clustering:  &cluster.Clustering{Assign: assign, K: st.K, Medoids: medoids},
		medoidNames: medoidNames,
		nameCluster: nameCluster,
		silhouette:  st.Silhouette,
		scorer:      scorer,
		cfg: IndexConfig{
			K:               st.K,
			Scorer:          scorer,
			Workers:         st.Workers,
			Seed:            st.Seed,
			RebuildFraction: st.RebuildFraction,
		},
		nameCount: nameCount,
		baseNames: baseNames,
		drift:     st.Drift,
	}
	return ix.indexClasses(nil), nil
}

// SortedAssignments returns the state's (name, cluster) pairs sorted
// by name — the deterministic iteration serializers need.
func (st *State) SortedAssignments() (names []string, clusters []int) {
	names = make([]string, 0, len(st.Assign))
	for n := range st.Assign {
		names = append(names, n)
	}
	sort.Strings(names)
	clusters = make([]int, len(names))
	for i, n := range names {
		clusters[i] = st.Assign[n]
	}
	return names, clusters
}
