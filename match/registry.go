package match

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Families in the matcher registry. A spec is "family" or
// "family:arg"; Parse validates the argument against the family.
const (
	FamilyExhaustive = "exhaustive"
	FamilyParallel   = "parallel"
	FamilyBeam       = "beam"
	FamilyTopk       = "topk"
	FamilyClustered  = "clustered"
)

// ErrTrailingSpec is wrapped into Parse errors for specs that carry
// content after a complete, valid specification — "beam:4:junk",
// "clustered:3:1", "exhaustive:1". Rejecting these explicitly (rather
// than letting the argument parser trip over the leftover) keeps the
// grammar closed as families gain richer arguments; test with
// errors.Is(err, ErrTrailingSpec).
var ErrTrailingSpec = errors.New("match: trailing content in matcher spec")

// Spec is a parsed matcher specification. The zero value is invalid;
// build one with Parse. Spec strings are the system of record for
// naming matchers: every matcher's Name() returns its canonical spec,
// so Parse(m.Name()) round-trips for all registry-built matchers.
//
//	exhaustive       the serial exhaustive system S1
//	parallel         S1 fanned out over GOMAXPROCS workers
//	parallel:4       ... with an explicit worker bound
//	beam:8           beam search, width 8
//	topk:0.05        aggressive cost-projection pruning, margin 0.05
//	clustered        cluster-restricted search, default top (K/6+1)
//	clustered:3      ... searching the 3 best clusters per element
type Spec struct {
	// Family is one of the Family* constants.
	Family string
	// Width is the beam width (family "beam", ≥ 1).
	Width int
	// Workers bounds the parallel workers (family "parallel";
	// 0 selects GOMAXPROCS).
	Workers int
	// Margin is the pruning margin (family "topk", ≥ 0).
	Margin float64
	// Top is how many clusters each personal element searches
	// (family "clustered"; 0 selects the index default K/6+1).
	Top int
}

// oneArg rejects a second ":" in the argument of a family that takes
// exactly one argument, with a typed ErrTrailingSpec error.
func oneArg(spec, arg string) (string, error) {
	if head, rest, found := strings.Cut(arg, ":"); found {
		return "", fmt.Errorf("match: spec %q: %w: unexpected %q after argument %q",
			spec, ErrTrailingSpec, rest, head)
	}
	return arg, nil
}

// Parse parses a matcher spec string. It rejects unknown families,
// missing, malformed or trailing arguments (ErrTrailingSpec), and
// arguments outside the family's domain, with errors that name the
// offending spec.
func Parse(spec string) (Spec, error) {
	family, arg, hasArg := strings.Cut(spec, ":")
	switch family {
	case FamilyExhaustive:
		if hasArg {
			return Spec{}, fmt.Errorf("match: spec %q: %w: exhaustive takes no argument", spec, ErrTrailingSpec)
		}
		return Spec{Family: FamilyExhaustive}, nil
	case FamilyParallel:
		sp := Spec{Family: FamilyParallel}
		if hasArg {
			arg, err := oneArg(spec, arg)
			if err != nil {
				return Spec{}, err
			}
			n, err := strconv.Atoi(arg)
			if err != nil {
				return Spec{}, fmt.Errorf("match: spec %q: worker count %q is not an integer", spec, arg)
			}
			if n < 1 {
				return Spec{}, fmt.Errorf("match: spec %q: worker count %d < 1", spec, n)
			}
			sp.Workers = n
		}
		return sp, nil
	case FamilyBeam:
		if !hasArg {
			return Spec{}, fmt.Errorf("match: spec %q: beam needs a width (\"beam:8\")", spec)
		}
		arg, err := oneArg(spec, arg)
		if err != nil {
			return Spec{}, err
		}
		w, err := strconv.Atoi(arg)
		if err != nil {
			return Spec{}, fmt.Errorf("match: spec %q: beam width %q is not an integer", spec, arg)
		}
		if w < 1 {
			return Spec{}, fmt.Errorf("match: spec %q: beam width %d < 1", spec, w)
		}
		return Spec{Family: FamilyBeam, Width: w}, nil
	case FamilyTopk:
		if !hasArg {
			return Spec{}, fmt.Errorf("match: spec %q: topk needs a margin (\"topk:0.05\")", spec)
		}
		arg, err := oneArg(spec, arg)
		if err != nil {
			return Spec{}, err
		}
		m, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("match: spec %q: topk margin %q is not a number", spec, arg)
		}
		// The < 0 test alone would wave NaN through (every comparison
		// with NaN is false) and break canonical round-tripping.
		if math.IsNaN(m) || math.IsInf(m, 0) || m < 0 {
			return Spec{}, fmt.Errorf("match: spec %q: topk margin %v is not a finite non-negative number", spec, m)
		}
		return Spec{Family: FamilyTopk, Margin: m}, nil
	case FamilyClustered:
		sp := Spec{Family: FamilyClustered}
		if hasArg {
			arg, err := oneArg(spec, arg)
			if err != nil {
				return Spec{}, err
			}
			top, err := strconv.Atoi(arg)
			if err != nil {
				return Spec{}, fmt.Errorf("match: spec %q: cluster count %q is not an integer", spec, arg)
			}
			if top < 1 {
				return Spec{}, fmt.Errorf("match: spec %q: cluster count %d < 1", spec, top)
			}
			sp.Top = top
		}
		return sp, nil
	case "":
		return Spec{}, fmt.Errorf("match: empty matcher spec")
	default:
		return Spec{}, fmt.Errorf("match: unknown matcher family %q (known: exhaustive, parallel, beam:W, topk:M, clustered[:T])", family)
	}
}

// ParseList parses a comma-separated list of specs ("beam:8,topk:0.05").
func ParseList(specs string) ([]Spec, error) {
	var out []Spec
	for _, s := range strings.Split(specs, ",") {
		sp, err := Parse(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		out = append(out, sp)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("match: empty matcher spec list")
	}
	return out, nil
}

// String returns the canonical spec string; Parse(sp.String()) yields
// an identical Spec for every valid sp.
func (sp Spec) String() string {
	switch sp.Family {
	case FamilyParallel:
		if sp.Workers > 0 {
			return fmt.Sprintf("parallel:%d", sp.Workers)
		}
		return "parallel"
	case FamilyBeam:
		return fmt.Sprintf("beam:%d", sp.Width)
	case FamilyTopk:
		return "topk:" + strconv.FormatFloat(sp.Margin, 'g', -1, 64)
	case FamilyClustered:
		if sp.Top > 0 {
			return fmt.Sprintf("clustered:%d", sp.Top)
		}
		return "clustered"
	default:
		return sp.Family
	}
}

// Exhaustive reports whether the spec names an exhaustive system
// (guaranteed to return all of SS∩{∆≤δ}). Only exhaustive systems may
// serve as the baseline the bounds technique compares against;
// conversely, only non-exhaustive specs get bounds attached.
func (sp Spec) Exhaustive() bool {
	return sp.Family == FamilyExhaustive || sp.Family == FamilyParallel
}
