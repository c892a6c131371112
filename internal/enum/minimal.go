package enum

import (
	"context"
	"time"

	"sortsynth/internal/isa"
)

// RunMinimal synthesizes a minimal-length kernel without a known optimal
// bound: it searches below the given upper bound (e.g. the length of a
// sorting-network kernel) with the fast non-optimality-preserving
// configuration, then alternates between finding shorter kernels and
// certifying nonexistence by exhaustive (optimality-preserving) search.
//
// The returned result carries the shortest kernel found; Proof is true
// iff the final nonexistence search exhausted, certifying minimality.
// stepBudget bounds each search step (0 = unlimited — beware: the n=4
// length-19 certification is the paper's two-week computation).
func RunMinimal(set *isa.Set, upper int, stepBudget time.Duration) *Result {
	step := func(opt Options) *Result {
		ctx := context.Background()
		if stepBudget > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, stepBudget)
			defer cancel()
		}
		return RunContext(ctx, set, opt)
	}
	find := ConfigBest()
	find.MaxLen = upper
	best := step(find)
	if best.Length < 0 {
		// The aggressive cut may prune every solution; fall back to the
		// exhaustive mode at the same bound.
		best = step(proofOpts(upper))
		if best.Length < 0 {
			// No kernel of length ≤ upper (certified iff Proof).
			return best
		}
	}
	for best.Length > 1 {
		// Fast probe for something shorter.
		f := ConfigBest()
		f.MaxLen = best.Length - 1
		if r := step(f); r.Length >= 0 {
			r.Proof = false
			best = r
			continue
		}
		// Certify that nothing shorter exists.
		pr := step(proofOpts(best.Length - 1))
		if pr.Length >= 0 {
			pr.Proof = false
			best = pr
			continue
		}
		best.Proof = pr.Proof && !pr.TimedOut
		break
	}
	return best
}

func proofOpts(maxLen int) Options {
	o := ConfigProof(maxLen)
	// Single-solution mode still exhausts when nothing is found (and so
	// certifies nonexistence), but stops at the first kernel when one
	// exists — RunMinimal only needs a witness, not the full enumeration.
	o.AllSolutions = false
	return o
}
