package matching

import "testing"

func setFrom(pairs ...struct {
	s string
	v float64
}) *AnswerSet {
	var answers []Answer
	for _, p := range pairs {
		answers = append(answers, Answer{
			Mapping: Mapping{Schema: p.s, Targets: []int{1}},
			Score:   p.v,
		})
	}
	return NewAnswerSet(answers)
}

func pair(s string, v float64) struct {
	s string
	v float64
} {
	return struct {
		s string
		v float64
	}{s, v}
}

func TestIntersect(t *testing.T) {
	a := setFrom(pair("x", 0.1), pair("y", 0.2), pair("z", 0.3))
	b := setFrom(pair("y", 0.2), pair("z", 0.3), pair("w", 0.4))
	got := Intersect(a, b)
	if got.Len() != 2 {
		t.Fatalf("Intersect len = %d", got.Len())
	}
	keys := got.Keys(1)
	if !keys["y:1"] || !keys["z:1"] {
		t.Errorf("Intersect keys = %v", keys)
	}
	// Empty intersection.
	if Intersect(a, setFrom(pair("q", 0.5))).Len() != 0 {
		t.Error("disjoint sets should intersect empty")
	}
}

func TestDiff(t *testing.T) {
	a := setFrom(pair("x", 0.1), pair("y", 0.2), pair("z", 0.3))
	b := setFrom(pair("y", 0.2))
	got := Diff(a, b)
	if got.Len() != 2 {
		t.Fatalf("Diff len = %d", got.Len())
	}
	keys := got.Keys(1)
	if !keys["x:1"] || !keys["z:1"] || keys["y:1"] {
		t.Errorf("Diff keys = %v", keys)
	}
	if Diff(a, a).Len() != 0 {
		t.Error("Diff with itself should be empty")
	}
	if Diff(a, NewAnswerSet(nil)).Len() != a.Len() {
		t.Error("Diff with empty should be identity")
	}
}

func TestIncrement(t *testing.T) {
	set := setFrom(pair("a", 0.1), pair("b", 0.2), pair("c", 0.3), pair("d", 0.4))
	inc := Increment(set, 0.1, 0.3)
	if len(inc) != 2 {
		t.Fatalf("Increment len = %d", len(inc))
	}
	if inc[0].Mapping.Schema != "b" || inc[1].Mapping.Schema != "c" {
		t.Errorf("Increment = %v", inc)
	}
	if got := Increment(set, 0.3, 0.1); got != nil {
		t.Errorf("reversed increment = %v, want nil", got)
	}
	if got := Increment(set, 0, 0.05); len(got) != 0 {
		t.Errorf("empty increment = %v", got)
	}
	// Full range.
	if got := Increment(set, 0, 1); len(got) != 4 {
		t.Errorf("full increment = %d", len(got))
	}
}

// TestIncrementConsistentWithCounts ties Increment to the count
// arithmetic the bounds package performs.
func TestIncrementConsistentWithCounts(t *testing.T) {
	set := setFrom(pair("a", 0.1), pair("b", 0.2), pair("c", 0.2), pair("d", 0.4))
	d1, d2 := 0.15, 0.35
	inc := Increment(set, d1, d2)
	if len(inc) != set.CountAt(d2)-set.CountAt(d1) {
		t.Errorf("increment size %d != count difference %d",
			len(inc), set.CountAt(d2)-set.CountAt(d1))
	}
}
