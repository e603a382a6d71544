package match

import (
	"errors"
	"strings"
	"testing"
)

// TestParseSpecRoundTrip pins the registry grammar: every valid spec
// parses, renders back to its canonical form, and re-parses to an
// identical Spec.
func TestParseSpecRoundTrip(t *testing.T) {
	cases := []struct {
		in        string
		want      Spec
		canonical string
	}{
		{"exhaustive", Spec{Family: FamilyExhaustive}, "exhaustive"},
		{"parallel", Spec{Family: FamilyParallel}, "parallel"},
		{"parallel:4", Spec{Family: FamilyParallel, Workers: 4}, "parallel:4"},
		{"beam:1", Spec{Family: FamilyBeam, Width: 1}, "beam:1"},
		{"beam:32", Spec{Family: FamilyBeam, Width: 32}, "beam:32"},
		{"topk:0", Spec{Family: FamilyTopk, Margin: 0}, "topk:0"},
		{"topk:0.05", Spec{Family: FamilyTopk, Margin: 0.05}, "topk:0.05"},
		{"topk:0.035", Spec{Family: FamilyTopk, Margin: 0.035}, "topk:0.035"},
		{"topk:5e-2", Spec{Family: FamilyTopk, Margin: 0.05}, "topk:0.05"},
		{"clustered", Spec{Family: FamilyClustered}, "clustered"},
		{"clustered:3", Spec{Family: FamilyClustered, Top: 3}, "clustered:3"},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if s := got.String(); s != c.canonical {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, s, c.canonical)
		}
		again, err := Parse(got.String())
		if err != nil {
			t.Errorf("re-Parse(%q): %v", got.String(), err)
		} else if again != got {
			t.Errorf("round-trip of %q: %+v != %+v", c.in, again, got)
		}
	}
}

// TestParseSpecRejectsMalformed pins the rejection surface: unknown
// families, missing arguments, junk arguments, and out-of-domain
// values all error. "sharded" is no longer a family, so every sharded
// spec — well-formed under the old grammar or not — must fail through
// the unknown-family path, which the wire maps to 400 bad_request.
func TestParseSpecRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"quantum",
		"exhaustive:2",               // family takes no argument
		"beam",                       // missing width
		"beam:",                      // empty width
		"beam:0",                     // width < 1
		"beam:-3",                    // width < 1
		"beam:eight",                 // not an integer
		"beam:8:9",                   // trailing argument
		"beam:8.5",                   // not an integer
		"topk",                       // missing margin
		"topk:",                      // empty margin
		"topk:-0.1",                  // negative margin
		"topk:wide",                  // not a number
		"topk:NaN",                   // NaN dodges < 0 and must be rejected explicitly
		"topk:+Inf",                  // non-finite margin
		"topk:-Inf",                  // non-finite margin
		"parallel:0",                 // workers < 1
		"parallel:many",              // not an integer
		"clustered:0",                // top < 1
		"clustered:first",            // not an integer
		"BEAM:8",                     // families are case-sensitive lowercase
		"sharded",                    // unknown family
		"sharded:4",                  // unknown family
		"sharded:4:exhaustive",       // unknown family
		"sharded:2:beam:8",           // unknown family
		"sharded:3:topk:5e-2",        // unknown family
		"sharded:8:clustered:2",      // unknown family
		"sharded:2:parallel:4",       // unknown family
		"sharded:4:parallel:2",       // unknown family
		"sharded:0",                  // unknown family
		"sharded:-2",                 // unknown family
		"sharded:two",                // unknown family
		"sharded:4:",                 // unknown family
		"sharded:4:quantum",          // unknown family
		"sharded:4:beam",             // unknown family
		"sharded:2:sharded:2",        // unknown family
		"sharded:2:sharded:2:beam:8", // unknown family
		"sharded:4:beam:8:junk",      // unknown family
		"clustered:3:junk",           // trailing garbage
		"parallel:2:junk",            // trailing garbage
		"topk:0.05:junk",             // trailing garbage
		"beam:4:junk",                // trailing garbage
	}
	for _, s := range bad {
		sp, err := Parse(s)
		if err == nil {
			t.Errorf("Parse(%q) = %+v, want error", s, sp)
		} else if strings.HasPrefix(s, "sharded") && !strings.Contains(err.Error(), "unknown matcher family") {
			t.Errorf("Parse(%q) error %v, want the unknown-family error", s, err)
		}
	}
}

// TestParseSpecTrailingTyped: trailing garbage after a complete valid
// spec is rejected with the typed ErrTrailingSpec, so callers can
// distinguish "almost valid, check your spec" from unknown families.
func TestParseSpecTrailingTyped(t *testing.T) {
	trailing := []string{
		"beam:4:junk",
		"topk:0.05:junk",
		"clustered:3:junk",
		"parallel:2:1",
		"exhaustive:1",
	}
	for _, s := range trailing {
		_, err := Parse(s)
		if err == nil {
			t.Errorf("Parse(%q) accepted trailing garbage", s)
			continue
		}
		if !errors.Is(err, ErrTrailingSpec) {
			t.Errorf("Parse(%q) error %v does not wrap ErrTrailingSpec", s, err)
		}
	}
	// A malformed argument is a malformed argument, not trailing.
	if _, err := Parse("beam:eight"); errors.Is(err, ErrTrailingSpec) {
		t.Error("beam:eight misclassified as trailing garbage")
	}
}

// TestParseList pins the comma-separated form matchbench consumes.
func TestParseList(t *testing.T) {
	specs, err := ParseList("beam:8, topk:0.05 ,clustered:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0].Width != 8 || specs[1].Margin != 0.05 || specs[2].Top != 3 {
		t.Errorf("ParseList = %+v", specs)
	}
	if _, err := ParseList("beam:8,,topk:0.05"); err == nil {
		t.Error("empty element should error")
	}
	if _, err := ParseList(""); err == nil {
		t.Error("empty list should error")
	}
}

// TestSpecExhaustive pins which families count as exhaustive (and so
// never get bounds attached / may serve as the baseline).
func TestSpecExhaustive(t *testing.T) {
	for spec, want := range map[string]bool{
		"exhaustive": true,
		"parallel":   true,
		"parallel:2": true,
		"beam:8":     false,
		"topk:0.05":  false,
		"clustered":  false,
	} {
		sp, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Exhaustive() != want {
			t.Errorf("%q.Exhaustive() = %v, want %v", spec, sp.Exhaustive(), want)
		}
	}
}
