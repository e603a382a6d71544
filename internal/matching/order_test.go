package matching

import (
	"cmp"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
)

// Schema names chosen to stress Key()'s byte order: names that are
// prefixes of each other, names containing the key's own separators
// ':' and ',', digits that collide with target text, and non-ASCII
// runes whose UTF-8 bytes sort above every ASCII byte.
var orderNames = []string{
	"", "a", "ab", "a:", "a:b", "a:1", "a,", "a,1", "a1", "a10", "a9",
	"s1", "s10", "s1:0", ":", "::", ",", "é", "éa", "e", "ж", "жж", "aÿ",
}

func randTarget(r *rand.Rand) int {
	switch r.IntN(6) {
	case 0:
		return r.IntN(12) // 9 vs 10, 1 vs 12 ...
	case 1:
		return []int{1, 2, 9, 10, 12, 19, 99, 100, 101, 1000}[r.IntN(10)]
	case 2:
		return r.IntN(1 << 20)
	case 3:
		return -r.IntN(30) // outside any schema, but Key renders it
	case 4:
		return r.Int() // multi-digit up to int64 max
	default:
		return r.IntN(3)
	}
}

func randMapping(r *rand.Rand) Mapping {
	t := make([]int, r.IntN(5))
	for i := range t {
		t[i] = randTarget(r)
	}
	return Mapping{Schema: orderNames[r.IntN(len(orderNames))], Targets: t}
}

func sign(c int) int { return cmp.Compare(c, 0) }

// TestMappingOrderMatchesKey: the string-free comparator orders every
// pair of mappings exactly as their Key() strings compare.
func TestMappingOrderMatchesKey(t *testing.T) {
	fixed := [][2]Mapping{
		{{Schema: "s", Targets: []int{9}}, {Schema: "s", Targets: []int{10}}},
		{{Schema: "s", Targets: []int{1, 2}}, {Schema: "s", Targets: []int{12}}},
		{{Schema: "s", Targets: []int{1}}, {Schema: "s", Targets: []int{1, 0}}},
		{{Schema: "a", Targets: []int{1}}, {Schema: "a:", Targets: []int{1}}},
		{{Schema: "a", Targets: []int{1}}, {Schema: "a:1", Targets: nil}},
		{{Schema: "a", Targets: []int{1}}, {Schema: "a,", Targets: []int{1}}},
		{{Schema: "s1", Targets: []int{5}}, {Schema: "s10", Targets: []int{5}}},
		{{Schema: "é", Targets: []int{0}}, {Schema: "e", Targets: []int{0}}},
		{{Schema: "s", Targets: []int{-1}}, {Schema: "s", Targets: []int{1}}},
		{{Schema: "s", Targets: []int{-1}}, {Schema: "s", Targets: []int{-12}}},
	}
	check := func(a, b Mapping) {
		t.Helper()
		want := strings.Compare(a.Key(), b.Key())
		if got := compareMappings(a, b); sign(got) != want {
			t.Fatalf("compareMappings(%q, %q) = %d, Key order %d", a.Key(), b.Key(), got, want)
		}
		if (want == 0) != a.Equal(b) {
			t.Fatalf("%q vs %q: equal keys %v but Equal %v", a.Key(), b.Key(), want == 0, a.Equal(b))
		}
	}
	for _, p := range fixed {
		check(p[0], p[1])
		check(p[1], p[0])
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 50000; i++ {
		a, b := randMapping(r), randMapping(r)
		if r.IntN(4) == 0 {
			b.Schema = a.Schema // same-schema fast path
		}
		check(a, b)
	}
}

// referenceSet is the Key()-based answer-set construction: sort by
// (score, key), then keep each key's first (lowest-scored) answer.
func referenceSet(answers []Answer) []Answer {
	answers = append([]Answer(nil), answers...)
	sort.Slice(answers, func(i, j int) bool {
		if answers[i].Score != answers[j].Score {
			return answers[i].Score < answers[j].Score
		}
		return answers[i].Mapping.Key() < answers[j].Mapping.Key()
	})
	var out []Answer
	seen := map[string]bool{}
	for _, a := range answers {
		if !seen[a.Mapping.Key()] {
			seen[a.Mapping.Key()] = true
			out = append(out, a)
		}
	}
	return out
}

func sameAnswers(t *testing.T, what string, got, want []Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].Mapping.Equal(want[i].Mapping) || got[i].Score != want[i].Score {
			t.Fatalf("%s: rank %d is %s@%v, want %s@%v", what, i,
				got[i].Mapping.Key(), got[i].Score, want[i].Mapping.Key(), want[i].Score)
		}
	}
}

// TestAnswerSetOrderMatchesKey: NewAnswerSet's string-free sort and
// dedup and ScoreIndex lookups all agree with the Key()-string
// reference on random answers with tied scores and duplicated mappings.
func TestAnswerSetOrderMatchesKey(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for round := 0; round < 300; round++ {
		var answers []Answer
		for i, n := 0, r.IntN(40); i < n; i++ {
			a := Answer{Mapping: randMapping(r), Score: float64(r.IntN(4)) / 4}
			answers = append(answers, a)
			if r.IntN(5) == 0 { // a duplicate mapping, maybe rescored
				answers = append(answers, Answer{Mapping: a.Mapping, Score: float64(r.IntN(4)) / 4})
			}
		}
		want := referenceSet(answers)
		set := NewAnswerSet(append([]Answer(nil), answers...))
		sameAnswers(t, "NewAnswerSet", set.All(), want)

		scores := map[string]float64{}
		for _, a := range want {
			scores[a.Mapping.Key()] = a.Score
		}
		ix := set.ScoreIndex()
		for _, a := range answers {
			got, ok := ix.Lookup(a.Mapping)
			if w, wok := scores[a.Mapping.Key()]; ok != wok || got != w {
				t.Fatalf("Lookup(%s) = %v,%v want %v,%v", a.Mapping.Key(), got, ok, w, wok)
			}
		}
		if _, ok := ix.Lookup(Mapping{Schema: "absent", Targets: []int{1}}); ok {
			t.Fatal("Lookup found a mapping the set does not hold")
		}
	}
}
