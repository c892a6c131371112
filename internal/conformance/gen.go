package conformance

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"sortsynth"
	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/verify"
)

// spec is one generated differential test case.
type spec struct {
	idx     int
	kind    isa.Kind
	n, m    int
	dup     bool
	obj     enum.Objective // ranking objective: a distinct spec class, like dup
	budget  int            // Spec.MaxLen: optimum + δ, δ ∈ [-2, 2], clamped ≥ 1
	opt     int            // ground-truth optimal length for (kind, n, m, suite)
	seed    int64          // Spec.Seed for the randomized backends
	timeout time.Duration  // per-backend deadline for this spec
}

func (s spec) set() *isa.Set { return isa.New(s.kind, s.n, s.m) }

// truthKey identifies one ground-truth problem.
type truthKey struct {
	kind isa.Kind
	n, m int
	dup  bool
}

func (k truthKey) String() string {
	suite := "permutations"
	if k.dup {
		suite = "weakorders"
	}
	return fmt.Sprintf("%s n=%d m=%d %s", k.kind, k.n, k.m, suite)
}

// truthCache memoizes optimal lengths computed by the admissible
// enumerative search. Not safe for concurrent use; every entry is
// computed up front during spec generation.
type truthCache struct {
	m   map[truthKey]int
	log func(format string, args ...any)
}

func newTruthCache(log func(string, ...any)) *truthCache {
	return &truthCache{m: map[truthKey]int{}, log: log}
}

// groundTruthOptions is the certified configuration: HeurDistMax is
// admissible and UseDistPrune is optimality-preserving
// (DESIGN.md §3), so the first solution found is provably minimal.
func groundTruthOptions(dup bool) enum.Options {
	return enum.Options{
		Heuristic:     enum.HeurDistMax,
		UseDistPrune:  true,
		DuplicateSafe: dup,
	}
}

// optimalLen returns the certified minimal kernel length for k,
// computing and caching it on first use.
func (c *truthCache) optimalLen(ctx context.Context, k truthKey) (int, error) {
	if l, ok := c.m[k]; ok {
		return l, nil
	}
	set := isa.New(k.kind, k.n, k.m)
	t0 := time.Now()
	res := enum.RunContext(ctx, set, groundTruthOptions(k.dup))
	switch {
	case res.Err != nil:
		return 0, fmt.Errorf("ground truth for %s: %w", k, res.Err)
	case res.Cancelled || res.TimedOut:
		return 0, fmt.Errorf("ground truth for %s: search stopped early (%v)", k, ctx.Err())
	case res.Program == nil:
		return 0, fmt.Errorf("ground truth for %s: no kernel found (exhausted=%v)", k, res.Exhausted)
	}
	// Defense in depth: the ground truth itself must verify, and must
	// match the published optimal lengths where those exist (m = 1).
	if ce := verify.Counterexample(set, res.Program); ce != nil {
		return 0, fmt.Errorf("ground truth for %s: program fails on %v", k, ce)
	}
	if k.dup {
		if ce := verify.DuplicateCounterexample(set, res.Program); ce != nil {
			return 0, fmt.Errorf("ground truth for %s: program fails on duplicate input %v", k, ce)
		}
	}
	if known, ok := sortsynth.KnownOptimalLength(set); ok && !k.dup && res.Length != known {
		return 0, fmt.Errorf("ground truth for %s: admissible search found %d, published optimum is %d",
			k, res.Length, known)
	}
	c.log("conformance: ground truth %s = %d (%.0fms, %d states)",
		k, res.Length, float64(time.Since(t0).Microseconds())/1000, res.Expanded)
	c.m[k] = res.Length
	return res.Length, nil
}

// rows returns the cached truths sorted for the report.
func (c *truthCache) rows() []TruthRow {
	rows := make([]TruthRow, 0, len(c.m))
	for k, l := range c.m {
		rows = append(rows, TruthRow{Problem: k.String(), OptLen: l})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Problem < rows[j].Problem })
	return rows
}

// generateSpecs produces the deterministic spec stream for opt.Seed.
// Every spec draws the same number of random values regardless of how
// the draws are interpreted, so the stream — and therefore the whole
// differential run — is a pure function of the seed.
//
// Size limits follow the ground-truth cost: cmov at n=3 only gets one
// scratch register (the admissible search at m=2 runs for minutes), and
// n=4 — generated only when MaxN ≥ 4 — is restricted to min/max with
// m=1 on the permutation suite.
func generateSpecs(ctx context.Context, opt Options, truths *truthCache) ([]spec, error) {
	rng := rand.New(rand.NewSource(opt.Seed))
	deltas := []int{-2, -1, 0, 1, 2}
	specs := make([]spec, 0, opt.Specs)
	for i := 0; i < opt.Specs; i++ {
		kindRoll := rng.Intn(100)
		nRoll := rng.Intn(100)
		mRoll := rng.Intn(100)
		dupRoll := rng.Intn(100)
		delta := deltas[rng.Intn(len(deltas))]
		seed := rng.Int63()
		tinyRoll := rng.Intn(100)
		objRoll := rng.Intn(100)

		sp := spec{idx: i, kind: isa.KindCmov, n: 2, m: 1, seed: seed, timeout: opt.BackendTimeout}
		if kindRoll >= 55 {
			sp.kind = isa.KindMinMax
		}
		switch {
		case opt.MaxN >= 4 && nRoll >= 90:
			sp.kind, sp.n = isa.KindMinMax, 4
		case opt.MaxN >= 3 && nRoll >= 60:
			sp.n = 3
		}
		if mRoll < 20 && sp.n < 4 && (sp.kind == isa.KindMinMax || sp.n == 2) {
			sp.m = 2
		}
		if dupRoll < 15 && sp.m == 1 && sp.n <= 3 {
			sp.dup = true
		}
		if tinyRoll < 10 {
			// A deliberately hopeless deadline: exercises the timeout and
			// cancellation paths, which must never read as divergences.
			sp.timeout = time.Millisecond
		}
		// Objectives are a distinct spec class, like the duplicate-safe
		// flag: the judge expects the enum backend to still land exactly
		// on the certified optimal length (re-ranking never changes the
		// length, only which member of the set is returned), and every
		// single-solution backend to refuse with the typed
		// UnsupportedObjectiveError — a no-claim outcome, never a
		// divergence. n ≤ 3 keeps the forced all-solutions enumeration in
		// the same cost band as the rest of the stream.
		if sp.n <= 3 {
			switch {
			case objRoll < 10:
				sp.obj = enum.ObjectiveFastest
			case objRoll < 15:
				sp.obj = enum.ObjectiveBalanced
			}
		}

		l, err := truths.optimalLen(ctx, truthKey{kind: sp.kind, n: sp.n, m: sp.m, dup: sp.dup})
		if err != nil {
			return nil, err
		}
		sp.opt = l
		sp.budget = l + delta
		if sp.budget < 1 {
			sp.budget = 1
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// digestSpecs hashes the generated spec stream; two runs with the same
// seed must print the same digest — the determinism witness in
// results/conformance.txt.
func digestSpecs(specs []spec) string {
	h := fnv.New64a()
	for _, sp := range specs {
		fmt.Fprintf(h, "%d|%s|%v|%s|%d|%d|%d|%s\n",
			sp.idx, sp.set(), sp.dup, sp.obj, sp.budget, sp.opt, sp.seed, sp.timeout)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
