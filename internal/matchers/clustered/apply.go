// Incremental index maintenance. A repository snapshot swap changes a
// handful of schemas; rebuilding the whole cluster index (distance
// matrix + k-medoids, quadratic in distinct names) for every swap
// would dwarf the update itself. Apply instead patches the index: the
// clustering (the medoid set) is kept fixed, names that vanished from
// the repository leave their clusters, and new names join the cluster
// of their nearest medoid — exactly the assignment rule k-medoids
// itself terminates on, so membership stays the deterministic function
// "name → nearest medoid" and an incrementally maintained index is
// bit-identical to rebuilding membership from scratch over the same
// medoids (Rebase, which ParityCheck verifies). Clustering quality can
// still drift as the name population shifts, so Apply re-clusters from
// scratch once cumulative churn crosses IndexConfig.RebuildFraction.

package clustered

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/xmlschema"
)

// Repository returns the repository the index currently serves.
func (ix *Index) Repository() *xmlschema.Repository { return ix.repo }

// HasName reports whether any element of the index's repository
// carries the given name.
func (ix *Index) HasName(name string) bool { return ix.nameCount[name] > 0 }

// Drift returns the number of distinct names added plus removed since
// the last full (re)build — the quantity Apply's rebuild threshold is
// compared against.
func (ix *Index) Drift() int { return ix.drift }

// Apply returns a new index serving repo, patched by the given
// snapshot diff: elements of removed and replaced schemas leave the
// index, elements of added and replacement schemas join it, and only
// names whose global refcount crossed zero change cluster membership
// (new names are assigned to their nearest medoid). The receiver is
// not modified and keeps serving in-flight searches against the old
// repository. When cumulative drift since the last full build exceeds
// the configured RebuildFraction, Apply falls back to a full BuildIndex
// over repo with the original configuration (sharing the scorer, so
// the memo stays warm).
//
// repo must be the repository the diff leads to; a diff inconsistent
// with the index's refcounts (e.g. removing a schema it never held) is
// an error.
func (ix *Index) Apply(repo *xmlschema.Repository, diff xmlschema.Diff) (*Index, error) {
	if repo == nil {
		return nil, fmt.Errorf("clustered: nil repository")
	}
	if diff.Empty() {
		return ix.withMembership(repo, ix.nameCluster, ix.nameCount, ix.drift, ix.classes), nil
	}

	counts := make(map[string]int, len(ix.nameCount))
	for n, c := range ix.nameCount {
		counts[n] = c
	}
	var addedNames, removedNames []string
	dec := func(s *xmlschema.Schema) error {
		for _, e := range s.Elements() {
			switch counts[e.Name]--; {
			case counts[e.Name] == 0:
				removedNames = append(removedNames, e.Name)
				delete(counts, e.Name)
			case counts[e.Name] < 0:
				return fmt.Errorf("clustered: diff removes name %q the index does not hold", e.Name)
			}
		}
		return nil
	}
	inc := func(s *xmlschema.Schema) {
		for _, e := range s.Elements() {
			if counts[e.Name]++; counts[e.Name] == 1 {
				addedNames = append(addedNames, e.Name)
			}
		}
	}
	for _, s := range diff.Removed {
		if err := dec(s); err != nil {
			return nil, err
		}
	}
	for _, ch := range diff.Replaced {
		if err := dec(ch.Old); err != nil {
			return nil, err
		}
	}
	for _, ch := range diff.Replaced {
		inc(ch.New)
	}
	for _, s := range diff.Added {
		inc(s)
	}
	// A name can bounce 0→1→0 (or 1→0→1) within one diff; keep only
	// names whose presence really changed against the index.
	addedNames = filterNames(addedNames, func(n string) bool {
		return counts[n] > 0 && ix.nameCount[n] == 0
	})
	removedNames = filterNames(removedNames, func(n string) bool {
		return counts[n] == 0 && ix.nameCount[n] > 0
	})
	if len(counts) == 0 {
		return nil, fmt.Errorf("clustered: diff empties the repository")
	}

	drift := ix.drift + len(addedNames) + len(removedNames)
	frac := ix.cfg.RebuildFraction
	if frac == 0 {
		frac = DefaultRebuildFraction
	}
	if frac >= 0 && float64(drift) > frac*float64(ix.baseNames) {
		return BuildIndex(repo, ix.cfg)
	}

	nameCluster := make(map[string]int, len(counts))
	for n, c := range ix.nameCluster {
		nameCluster[n] = c
	}
	for _, n := range removedNames {
		delete(nameCluster, n)
	}
	for _, n := range addedNames {
		nameCluster[n] = ix.nearestMedoid(n)
	}
	nix := ix.withMembership(repo, nameCluster, counts, drift, ix.classes)
	if ix.cfg.ParityCheck {
		ref, err := ix.Rebase(repo)
		if err != nil {
			return nil, fmt.Errorf("clustered: parity reference: %w", err)
		}
		if err := membershipEqual(nix, ref); err != nil {
			return nil, fmt.Errorf("clustered: incremental apply diverged from fresh membership build: %w", err)
		}
	}
	return nix, nil
}

// Rebase rebuilds the index's membership from scratch over repo while
// keeping the clustering (the medoid set) fixed: every distinct name
// of repo is assigned to its nearest medoid. It is the from-scratch
// reference Apply must agree with — Apply(diff) over any diff sequence
// leading to repo yields the same membership — and doubles as a repair
// path when no diff is available.
func (ix *Index) Rebase(repo *xmlschema.Repository) (*Index, error) {
	if repo == nil {
		return nil, fmt.Errorf("clustered: nil repository")
	}
	counts := countNames(repo)
	if len(counts) == 0 {
		return nil, fmt.Errorf("clustered: empty repository")
	}
	nameCluster := make(map[string]int, len(counts))
	for n := range counts {
		nameCluster[n] = ix.nearestMedoid(n)
	}
	return ix.withMembership(repo, nameCluster, counts, ix.drift, nil), nil
}

// withMembership returns ix over repo with the given membership, name
// counts and drift; the clustering, scorer and configuration carry
// over. prev's per-schema class arrays are reused for schemas whose
// names kept their clusters.
func (ix *Index) withMembership(repo *xmlschema.Repository, nameCluster, counts map[string]int, drift int, prev map[*xmlschema.Schema][]int32) *Index {
	nix := *ix
	nix.repo, nix.nameCluster, nix.nameCount, nix.drift = repo, nameCluster, counts, drift
	return nix.indexClasses(prev)
}

// nearestMedoid returns the cluster whose medoid name is nearest to
// name, by the package-shared k-medoids assignment rule
// (cluster.NearestMedoid: distance-matrix argument orientation, zero
// self-distance, strict-< lowest-index tie-break). Existing assignments
// already satisfy this rule — k-medoids terminates on a full
// nearest-medoid assignment — which is what makes incremental insertion
// equivalent to a fresh build.
func (ix *Index) nearestMedoid(name string) int {
	return cluster.NearestMedoid(name, ix.medoidNames, ix.scorer)
}

// membershipEqual reports (as an error) the first divergence between
// two indexes' name sets or cluster memberships.
func membershipEqual(a, b *Index) error {
	if len(a.nameCluster) != len(b.nameCluster) {
		return fmt.Errorf("%d names vs %d", len(a.nameCluster), len(b.nameCluster))
	}
	for n, ca := range a.nameCluster {
		cb, ok := b.nameCluster[n]
		if !ok {
			return fmt.Errorf("name %q missing from reference", n)
		}
		if ca != cb {
			return fmt.Errorf("name %q in cluster %d vs %d", n, ca, cb)
		}
	}
	return nil
}

// filterNames keeps the names satisfying keep, de-duplicated.
func filterNames(names []string, keep func(string) bool) []string {
	seen := make(map[string]bool, len(names))
	out := names[:0]
	for _, n := range names {
		if !seen[n] && keep(n) {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}
