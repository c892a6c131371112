package conformance

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/perm"
	"sortsynth/internal/state"
	"sortsynth/internal/verify"
)

// runMetamorphic executes every metamorphic invariant check. Each check
// derives its own rng from the master seed, so the set of trials is as
// deterministic as the differential spec stream.
func runMetamorphic(ctx context.Context, opt Options, truths *truthCache) []Invariant {
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x5eedc0de))
	invs := []Invariant{
		checkCanonicalization(rng.Int63()),
		checkInitialSymmetry(rng.Int63()),
		checkZeroOne(rng.Int63()),
		checkSuiteImplication(rng.Int63()),
		checkQueueTable(rng.Int63()),
	}
	invs = append(invs, checkEnumVariants(ctx, opt, truths))
	return invs
}

func fail(inv *Invariant, kind, subject, format string, args ...any) {
	inv.Divergences = append(inv.Divergences, Divergence{
		Check:  inv.Name,
		Kind:   kind,
		Spec:   subject,
		Detail: fmt.Sprintf(format, args...),
	})
}

// randProgram draws a uniformly random instruction sequence over set.
func randProgram(rng *rand.Rand, set *isa.Set, maxLen int) isa.Program {
	instrs := set.Instrs()
	p := make(isa.Program, rng.Intn(maxLen+1))
	for i := range p {
		p[i] = instrs[rng.Intn(len(instrs))]
	}
	return p
}

// checkCanonicalization: Canonicalize is idempotent, produces strictly
// ascending states, absorbs injected duplicates, and Hash/HashKey are
// invariant under element order with Hash(s) == HashKey(s).Lo. Holds by
// construction: canonical form is the sorted duplicate-free set of
// packed assignments, and both hashes fold over exactly that sequence.
func checkCanonicalization(seed int64) Invariant {
	inv := Invariant{Name: "canonicalize-hash"}
	rng := rand.New(rand.NewSource(seed))
	sets := []*isa.Set{isa.NewCmov(2, 1), isa.NewCmov(3, 1), isa.NewCmov(2, 2), isa.NewMinMax(3, 2)}
	for _, set := range sets {
		m := state.NewMachine(set)
		instrs := set.Instrs()
		for trial := 0; trial < 48; trial++ {
			inv.Checks++
			s := m.Initial().Clone()
			for k := 1 + rng.Intn(8); k > 0; k-- {
				s = m.Apply(nil, s, instrs[rng.Intn(len(instrs))])
			}
			subject := fmt.Sprintf("%s trial %d (|s|=%d)", set, trial, len(s))

			for i := 1; i < len(s); i++ {
				if s[i-1] >= s[i] {
					fail(&inv, "not-ascending", subject, "canonical state not strictly ascending at %d", i)
					break
				}
			}
			c := s.Clone()
			state.Canonicalize(&c)
			if !slices.Equal(c, s) {
				fail(&inv, "idempotence", subject, "re-canonicalization changed the state")
			}
			// Inject duplicates and shuffle: canonical form must be
			// unchanged, and so must both hashes.
			raw := s.Clone()
			for d := 0; d < 3 && len(s) > 0; d++ {
				raw = append(raw, s[rng.Intn(len(s))])
			}
			rng.Shuffle(len(raw), func(i, j int) { raw[i], raw[j] = raw[j], raw[i] })
			state.Canonicalize(&raw)
			if !slices.Equal(raw, s) {
				fail(&inv, "duplicate-absorption", subject, "canonical form changed under duplication+shuffle")
			}
			k := state.HashKey(s)
			if state.Hash(s) != k.Lo {
				fail(&inv, "hash-split", subject, "Hash = %#x but HashKey.Lo = %#x", state.Hash(s), k.Lo)
			}
			if state.HashKey(raw) != k {
				fail(&inv, "hash-stability", subject, "HashKey changed under duplication+shuffle")
			}
		}
	}
	return inv
}

// checkInitialSymmetry: the canonical initial state — and therefore the
// entire search and the synthesized length, which are functions of it —
// is invariant under permuting the order in which the test-suite inputs
// are enumerated. Holds by construction: the initial state is a
// canonicalized set, so enumeration order cannot leak in.
func checkInitialSymmetry(seed int64) Invariant {
	inv := Invariant{Name: "initial-symmetry"}
	rng := rand.New(rand.NewSource(seed))
	sets := []*isa.Set{isa.NewCmov(2, 1), isa.NewCmov(3, 1), isa.NewCmov(2, 2), isa.NewMinMax(4, 1)}
	for _, set := range sets {
		m := state.NewMachine(set)
		perms := perm.All(set.N)
		for trial := 0; trial < 8; trial++ {
			inv.Checks++
			order := rng.Perm(len(perms))
			rebuilt := make(state.State, 0, len(perms))
			for _, i := range order {
				rebuilt = append(rebuilt, m.PackRegs(perms[i]))
			}
			state.Canonicalize(&rebuilt)
			if !slices.Equal(rebuilt, m.Initial()) {
				fail(&inv, "input-order", fmt.Sprintf("%s trial %d", set, trial),
					"initial state depends on test-suite enumeration order")
			}
		}
	}
	return inv
}

// checkZeroOne: on min/max programs (monotone circuits) the 0-1
// principle — all 2^n zero/one inputs sort — must agree exactly with
// full n!-permutation verification. Holds because min/max kernels are
// monotone, for which the 0-1 sorting lemma is sound and complete.
func checkZeroOne(seed int64) Invariant {
	inv := Invariant{Name: "zero-one"}
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 250; trial++ {
		inv.Checks++
		n := 2 + rng.Intn(3)
		set := isa.NewMinMax(n, 1)
		p := randProgram(rng, set, 12)
		zo := verify.Sorts01MinMax(set, p)
		full := verify.Sorts(set, p)
		if zo != full {
			fail(&inv, "disagreement", fmt.Sprintf("%s trial %d", set, trial),
				"0-1 principle says %v, permutation suite says %v for %q", zo, full, p.FormatInline(n))
		}
	}
	return inv
}

// checkSuiteImplication: the weak-order suite strictly subsumes the
// permutation suite, so a duplicate-safe program can never fail a
// permutation or a random integer input. Holds because the permutations
// are exactly the tie-free weak orders, and weak-order correctness is
// complete for arbitrary integers.
func checkSuiteImplication(seed int64) Invariant {
	inv := Invariant{Name: "suite-implication"}
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 150; trial++ {
		inv.Checks++
		n := 2 + rng.Intn(2)
		var set *isa.Set
		if rng.Intn(2) == 0 {
			set = isa.NewCmov(n, 1)
		} else {
			set = isa.NewMinMax(n, 1)
		}
		p := randProgram(rng, set, 12)
		if !verify.SortsDuplicates(set, p) {
			continue
		}
		subject := fmt.Sprintf("%s trial %d", set, trial)
		if !verify.Sorts(set, p) {
			fail(&inv, "subsumption", subject,
				"duplicate-safe program fails a permutation: %q", p.FormatInline(n))
		}
		if in := verify.SortsRandom(set, p, 32, 3, rng.Int63()); in != nil {
			fail(&inv, "subsumption", subject,
				"duplicate-safe program fails random input %v: %q", in, p.FormatInline(n))
		}
	}
	return inv
}

// checkQueueTable replays the engine's bucket queue and flat dedup
// table against their retired reference implementations (the heap-order
// contract and a plain Go map).
func checkQueueTable(seed int64) Invariant {
	inv := Invariant{Name: "queue-table-reference", Checks: 2}
	if err := enum.CheckBucketQueueConformance(seed, 30, 400); err != nil {
		fail(&inv, "bucket-queue", "bucketQueue vs reference model", "%v", err)
	}
	if err := enum.CheckFlatTableConformance(seed+1, 20000); err != nil {
		fail(&inv, "flat-table", "flatTable vs map", "%v", err)
	}
	return inv
}

// checkEnumVariants: every enum search variant — heuristics, cuts,
// all-solutions mode — must synthesize the same optimal length. Holds
// because the heuristics are either admissible or paired with pruning
// the paper shows to be optimality-preserving at these sizes.
func checkEnumVariants(ctx context.Context, opt Options, truths *truthCache) Invariant {
	inv := Invariant{Name: "enum-variants"}
	combos := []*isa.Set{isa.NewCmov(2, 1), isa.NewMinMax(2, 1)}
	if opt.MaxN >= 3 {
		combos = append(combos, isa.NewMinMax(3, 1), isa.NewCmov(3, 1))
	}
	for _, set := range combos {
		want, err := truths.optimalLen(ctx, truthKey{kind: set.Kind, n: set.N, m: set.M})
		if err != nil {
			fail(&inv, "ground-truth", set.String(), "%v", err)
			continue
		}
		admissible := enum.Options{Heuristic: enum.HeurDistMax, UseDistPrune: true}
		variants := map[string]enum.Options{
			"distmax":           admissible,
			"best":              enum.ConfigBest(),
			"best-cut-additive": {Heuristic: enum.HeurPermCount, UseDistPrune: true, UseActionGuide: true, Cut: enum.CutAdditive, CutK: 2},
		}
		if set.N == 2 {
			variants["base"] = enum.ConfigBase()
			variants["permcount"] = enum.Options{Heuristic: enum.HeurPermCount, UseDistPrune: true}
			variants["asgcount"] = enum.Options{Heuristic: enum.HeurAsgCount, UseDistPrune: true}
		}
		for name, vopt := range variants {
			inv.Checks++
			res := enum.RunContext(ctx, set, vopt)
			subject := fmt.Sprintf("%s variant %s", set, name)
			switch {
			case res.Err != nil:
				fail(&inv, "variant-error", subject, "%v", res.Err)
			case res.Cancelled || res.TimedOut:
				fail(&inv, "variant-stopped", subject, "search stopped early")
			case res.Program == nil:
				fail(&inv, "variant-empty", subject, "no kernel found")
			case res.Length != want:
				fail(&inv, "length-variance", subject, "found length %d, optimum is %d", res.Length, want)
			case verify.Counterexample(set, res.Program) != nil:
				fail(&inv, "variant-incorrect", subject, "kernel fails verification")
			}
		}
		// All-solutions mode must report the same optimal length. cmov
		// n=3 is excluded on time grounds (5602 solutions).
		if set.Kind == isa.KindCmov && set.N >= 3 {
			continue
		}
		inv.Checks++
		all := enum.RunContext(ctx, set, enum.ConfigAllSolutions())
		subject := fmt.Sprintf("%s all-solutions", set)
		switch {
		case all.Err != nil:
			fail(&inv, "variant-error", subject, "%v", all.Err)
		case all.Length != want:
			fail(&inv, "length-variance", subject, "found length %d, optimum is %d", all.Length, want)
		}
	}
	return inv
}
