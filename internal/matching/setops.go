package matching

// Set operations over answer sets. The bounds technique reasons about
// increments A(δ2) \ A(δ1) and containments A_S2 ⊆ A_S1; these helpers
// make those relations directly computable for diagnostics and tests.

// Intersect returns the answers present in both sets (by mapping),
// with a's scores. The result is a valid AnswerSet.
func Intersect(a, b *AnswerSet) *AnswerSet {
	return filterBy(a, b, true)
}

// Diff returns the answers of a that are absent from b — for the
// exhaustive system and an improvement, exactly the answers the
// improvement misses.
func Diff(a, b *AnswerSet) *AnswerSet {
	return filterBy(a, b, false)
}

// filterBy keeps the answers of a whose mapping's presence in b equals
// inB.
func filterBy(a, b *AnswerSet, inB bool) *AnswerSet {
	ix := b.ScoreIndex()
	var out []Answer
	for _, ans := range a.All() {
		if _, ok := ix.Lookup(ans.Mapping); ok == inB {
			out = append(out, ans)
		}
	}
	return NewAnswerSet(out)
}

// Increment returns the answers of set with δ1 < score ≤ δ2 — the
// paper's Â(δ1–δ2) = A(δ2) \ A(δ1). δ2 < δ1 yields an empty set.
func Increment(set *AnswerSet, delta1, delta2 float64) []Answer {
	lo := set.CountAt(delta1)
	hi := set.CountAt(delta2)
	if hi < lo {
		return nil
	}
	return set.All()[lo:hi]
}
