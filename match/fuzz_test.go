package match

import (
	"context"
	"math"
	"testing"

	"repro/internal/synth"
)

// FuzzParseSpec checks the registry parser over arbitrary input: it
// must never panic, and every spec it ACCEPTS must round-trip through
// its canonical form — Parse(sp.String()) yields the identical Spec,
// and the canonical form is a fixed point of String.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"exhaustive", "parallel", "parallel:4", "beam:8", "topk:0.05",
		"topk:0", "clustered", "clustered:3",
		"", ":", "beam", "beam:", "beam:0", "beam:-1", "beam:1e3",
		"topk", "topk:-1", "topk:NaN", "topk:+Inf", "topk:1e-300",
		"parallel:0", "parallel:9999999999999999999", "clustered:x",
		"quantum", "exhaustive:1", "beam:8:9", "topk:0x1p-3", "topk:.5",
		// Trailing garbage after a complete valid spec must be rejected
		// (with the typed ErrTrailingSpec), never silently dropped.
		"beam:4:junk", "topk:0.05:junk", "clustered:3:junk",
		"parallel:2:1", "beam:8:", "clustered:3:",
		// Former sharded specs: no longer a family, so they exercise the
		// unknown-family rejection path.
		"sharded", "sharded:4", "sharded:0", "sharded:x",
		"sharded:4:exhaustive", "sharded:4:beam:8", "sharded:2:topk:0.05",
		"sharded:3:clustered:2", "sharded:2:parallel:4",
		"sharded:4:", "sharded:4:quantum", "sharded:4:beam",
		"sharded:2:sharded:2", "sharded:2:sharded:2:beam:8",
		"sharded:4:beam:8:junk", "sharded:4:exhaustive:1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := Parse(s)
		if err != nil {
			return // rejection is always legal; only acceptance carries obligations
		}
		canonical := sp.String()
		sp2, err := Parse(canonical)
		if err != nil {
			t.Fatalf("Parse(%q) accepted but canonical %q rejected: %v", s, canonical, err)
		}
		if sp2 != sp {
			t.Fatalf("Parse(%q) = %+v but Parse(String()=%q) = %+v", s, sp, canonical, sp2)
		}
		if again := sp2.String(); again != canonical {
			t.Fatalf("String not a fixed point: %q -> %q", canonical, again)
		}
		if sp.Family == FamilyTopk && (math.IsNaN(sp.Margin) || math.IsInf(sp.Margin, 0)) {
			t.Fatalf("Parse(%q) accepted non-finite margin %v", s, sp.Margin)
		}
	})
}

// FuzzSynthMatch drives arbitrary schema-perturbation inputs through
// corpus generation into a small end-to-end match: generation must
// either reject the config or produce a corpus on which a beam search
// is a valid improvement of the exhaustive baseline (subset with equal
// scores) — the invariant the whole bounds technique rests on.
func FuzzSynthMatch(f *testing.F) {
	f.Add(uint64(1), 0.6, 0.5, uint8(4), uint8(3))
	f.Add(uint64(7), 0.0, 1.0, uint8(3), uint8(4))
	f.Add(uint64(42), 1.0, 0.0, uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, strength, plantRate float64, schemas, personalSize uint8) {
		// Clamp the continuous knobs into the generator's domain —
		// out-of-domain values are covered by the validation tests; the
		// fuzzer's job is the accepted space.
		if math.IsNaN(strength) || math.IsInf(strength, 0) {
			strength = 0.5
		}
		if math.IsNaN(plantRate) || math.IsInf(plantRate, 0) {
			plantRate = 0.5
		}
		strength = math.Abs(strength)
		strength -= math.Floor(strength) // into [0,1)
		plantRate = math.Abs(plantRate)
		plantRate -= math.Floor(plantRate)

		personal, err := synth.RandomPersonal(seed, 1+int(personalSize)%4)
		if err != nil {
			t.Fatalf("RandomPersonal: %v", err)
		}
		cfg := synth.DefaultConfig(seed)
		cfg.NumSchemas = 1 + int(schemas)%6
		cfg.PerturbStrength = strength
		cfg.PlantRate = plantRate
		sc, err := synth.Generate(personal, cfg)
		if err != nil {
			t.Fatalf("Generate rejected an in-domain config: %v", err)
		}
		svc, err := NewService(sc.Repo)
		if err != nil {
			t.Fatalf("NewService: %v", err)
		}
		ctx := context.Background()
		const delta = 0.3
		exh, err := svc.Match(ctx, Request{Personal: sc.Personal, Delta: delta, Matcher: "exhaustive"})
		if err != nil {
			t.Fatalf("exhaustive: %v", err)
		}
		bm, err := svc.Match(ctx, Request{Personal: sc.Personal, Delta: delta, Matcher: "beam:4"})
		if err != nil {
			t.Fatalf("beam: %v", err)
		}
		if err := bm.Set.SubsetOf(exh.Set); err != nil {
			t.Fatalf("beam answers are not an improvement of exhaustive: %v", err)
		}
	})
}
