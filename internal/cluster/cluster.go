// Package cluster implements the element-clustering substrate used by
// the non-exhaustive "clustered" matcher, reproducing the efficiency
// technique of Smiljanić et al. (WIRI 2006) that motivates the paper:
// repository elements are grouped by name similarity so that a query
// only searches the most promising clusters. Mappings whose targets
// span unselected clusters are lost — which is precisely what makes the
// improved system non-exhaustive and creates the need for effectiveness
// bounds.
//
// Two algorithms are provided — k-medoids (PAM-style) and average-link
// agglomerative clustering — plus the silhouette quality index and a
// symmetric distance matrix with O(1) lookup. Name-distance matrices
// are built through the shared scoring engine (NewNameMatrix), so the
// clusterer and the matchers draw node-pair scores from one memo table.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/stats"
)

// DistFunc returns a dissimilarity in [0, 1] for the items with indices
// i and j. Implementations must be symmetric with zero self-distance.
type DistFunc func(i, j int) float64

// Matrix stores the lower triangle of a symmetric pairwise distance
// matrix for n items.
type Matrix struct {
	n    int
	data []float64
}

// NewMatrix evaluates dist for every unordered pair of the n items and
// stores the result. It returns an error for n < 0.
func NewMatrix(n int, dist DistFunc) (*Matrix, error) {
	if n < 0 {
		return nil, fmt.Errorf("cluster: negative item count %d", n)
	}
	m := &Matrix{n: n, data: make([]float64, n*(n-1)/2)}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			m.data[m.index(i, j)] = dist(i, j)
		}
	}
	return m, nil
}

// NewNameMatrix builds the pairwise name-distance matrix for names
// through the scoring engine: the distance of names i and j is
// 1 − sc.Score(names[i], names[j]). The all-pairs evaluation runs on
// the engine's worker-pool builder (workers < 1 selects GOMAXPROCS),
// so building a large index warms the same memo table the matchers
// read from. The triangle layouts of engine.SymMatrix and Matrix are
// identical, so the scores transfer without re-indexing.
func NewNameMatrix(names []string, sc engine.Scorer, workers int) (*Matrix, error) {
	if sc == nil {
		return nil, fmt.Errorf("cluster: nil scorer")
	}
	sym := engine.BuildSymmetric(names, sc, workers)
	data := sym.Values() // each build allocates; ownership transfers
	for i, s := range data {
		data[i] = 1 - s
	}
	return &Matrix{n: len(names), data: data}, nil
}

// NearestMedoid returns the index of the medoid name nearest to name —
// THE assignment rule of this package's k-medoids clustering, shared by
// every consumer that inserts names into an existing clustering (the
// clustered matcher's incremental index maintenance and restore).
// Keeping it here keeps all call sites bit-identical: distances are
// evaluated in the distance matrix's argument orientation (greater name
// first, matching BuildSymmetric's (names[i], names[j]) with i > j over
// a sorted name list, so a slightly asymmetric metric reproduces the
// matrix's values exactly),
// the medoid name itself is distance 0 (the matrix's zero diagonal),
// and ties keep the lowest index via strict-< comparison. k-medoids
// terminates on a full nearest-medoid assignment, which is what makes
// insertion by this rule equivalent to a fresh membership build.
func NearestMedoid(name string, medoidNames []string, sc engine.Scorer) int {
	best, bestD := 0, MedoidDist(name, medoidNames[0], sc)
	for c := 1; c < len(medoidNames); c++ {
		if d := MedoidDist(name, medoidNames[c], sc); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// MedoidDist evaluates the name-to-medoid distance in the matrix's
// orientation; see NearestMedoid.
func MedoidDist(name, medoid string, sc engine.Scorer) float64 {
	switch {
	case name == medoid:
		return 0
	case name > medoid:
		return 1 - sc.Score(name, medoid)
	default:
		return 1 - sc.Score(medoid, name)
	}
}

func (m *Matrix) index(i, j int) int {
	if i < j {
		i, j = j, i
	}
	return i*(i-1)/2 + j
}

// At returns the stored distance between items i and j.
func (m *Matrix) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return m.data[m.index(i, j)]
}

// Len returns the number of items.
func (m *Matrix) Len() int { return m.n }

// Clustering assigns each of n items to one of K clusters.
type Clustering struct {
	// Assign[i] is the cluster index of item i, in [0, K).
	Assign []int
	// K is the number of clusters.
	K int
	// Medoids holds a representative item per cluster when the
	// algorithm produces one (k-medoids); nil otherwise.
	Medoids []int
}

// Members returns the item indices of cluster c, ascending.
func (c *Clustering) Members(k int) []int {
	var out []int
	for i, a := range c.Assign {
		if a == k {
			out = append(out, i)
		}
	}
	return out
}

// Sizes returns the number of items per cluster.
func (c *Clustering) Sizes() []int {
	sizes := make([]int, c.K)
	for _, a := range c.Assign {
		sizes[a]++
	}
	return sizes
}

// KMedoids clusters n items into k clusters by Voronoi iteration
// (alternating assignment and medoid recomputation — the fast
// k-means-style k-medoids variant) on the given distance matrix, using
// rng for the initial medoid draw. It returns an error when k is out
// of (0, n].
func KMedoids(m *Matrix, k int, rng *stats.RNG) (*Clustering, error) {
	n := m.Len()
	if k <= 0 || k > n {
		return nil, fmt.Errorf("cluster: k=%d out of range for %d items", k, n)
	}
	if rng == nil {
		rng = stats.NewRNG(0)
	}
	// Initial medoids: random distinct items.
	perm := rng.Perm(n)
	medoids := append([]int(nil), perm[:k]...)
	sort.Ints(medoids)

	assign := make([]int, n)
	assignAll := func() {
		for i := 0; i < n; i++ {
			best, bestD := 0, m.At(i, medoids[0])
			for c := 1; c < k; c++ {
				if d := m.At(i, medoids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			assign[i] = best
		}
	}
	assignAll()

	for iter := 0; iter < 50; iter++ {
		changed := false
		// Recompute each cluster's medoid: the member minimizing the
		// total distance to the cluster's other members.
		for c := 0; c < k; c++ {
			members := membersOf(assign, c)
			if len(members) == 0 {
				continue // keep the old medoid for empty clusters
			}
			best, bestSum := medoids[c], sumDist(m, medoids[c], members)
			for _, cand := range members {
				if s := sumDist(m, cand, members); s+1e-12 < bestSum {
					best, bestSum = cand, s
				}
			}
			if best != medoids[c] {
				medoids[c] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		assignAll()
	}
	assignAll()
	return &Clustering{Assign: assign, K: k, Medoids: append([]int(nil), medoids...)}, nil
}

func membersOf(assign []int, c int) []int {
	var out []int
	for i, a := range assign {
		if a == c {
			out = append(out, i)
		}
	}
	return out
}

func sumDist(m *Matrix, center int, members []int) float64 {
	total := 0.0
	for _, i := range members {
		total += m.At(center, i)
	}
	return total
}

// Agglomerative performs average-link hierarchical clustering, cutting
// the dendrogram when k clusters remain. It returns an error when k is
// out of (0, n].
func Agglomerative(m *Matrix, k int) (*Clustering, error) {
	n := m.Len()
	if k <= 0 || k > n {
		return nil, fmt.Errorf("cluster: k=%d out of range for %d items", k, n)
	}
	// active clusters as member lists.
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	// Average-link distance between two member lists.
	linkage := func(a, b []int) float64 {
		sum := 0.0
		for _, i := range a {
			for _, j := range b {
				sum += m.At(i, j)
			}
		}
		return sum / float64(len(a)*len(b))
	}
	for len(clusters) > k {
		bi, bj, best := -1, -1, 0.0
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				d := linkage(clusters[i], clusters[j])
				if bi == -1 || d < best {
					bi, bj, best = i, j, d
				}
			}
		}
		merged := append(append([]int(nil), clusters[bi]...), clusters[bj]...)
		clusters[bi] = merged
		clusters = append(clusters[:bj], clusters[bj+1:]...)
	}
	assign := make([]int, n)
	for c, members := range clusters {
		for _, i := range members {
			assign[i] = c
		}
	}
	return &Clustering{Assign: assign, K: len(clusters)}, nil
}

// Silhouette returns the mean silhouette coefficient of a clustering in
// [-1, 1]; higher is better. Items in singleton clusters contribute 0,
// following the standard convention.
func Silhouette(m *Matrix, c *Clustering) float64 {
	n := m.Len()
	if n == 0 {
		return 0
	}
	sizes := c.Sizes()
	total := 0.0
	for i := 0; i < n; i++ {
		own := c.Assign[i]
		if sizes[own] <= 1 {
			continue // contributes 0
		}
		// a: mean intra-cluster distance; b: min mean distance to
		// another cluster.
		sumIn := 0.0
		sumsOut := make([]float64, c.K)
		countsOut := make([]int, c.K)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if c.Assign[j] == own {
				sumIn += m.At(i, j)
			} else {
				sumsOut[c.Assign[j]] += m.At(i, j)
				countsOut[c.Assign[j]]++
			}
		}
		a := sumIn / float64(sizes[own]-1)
		b := -1.0
		for cl := 0; cl < c.K; cl++ {
			if cl == own || countsOut[cl] == 0 {
				continue
			}
			if mean := sumsOut[cl] / float64(countsOut[cl]); b < 0 || mean < b {
				b = mean
			}
		}
		if b < 0 {
			continue // only one non-empty cluster
		}
		den := a
		if b > den {
			den = b
		}
		if den > 0 {
			total += (b - a) / den
		}
	}
	return total / float64(n)
}
