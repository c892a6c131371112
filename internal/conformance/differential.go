package conformance

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"sortsynth/internal/backend"
	"sortsynth/internal/enum"
	"sortsynth/internal/verify"
)

// judgeSpec runs every applicable backend on sp concurrently and judges
// each outcome against the ground truth. It returns the divergences and
// the per-backend status (by name) for the report's status matrix.
func judgeSpec(ctx context.Context, opt Options, sp spec) ([]Divergence, map[string]string) {
	var targets []backend.Backend
	for _, b := range engines(opt.Registry) {
		if !sp.dup || dupCapable[b.Name()] {
			targets = append(targets, b)
		}
	}
	targets = append(targets, opt.Extra...)

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		divs     []Divergence
		statuses = make(map[string]string, len(targets))
	)
	for _, b := range targets {
		wg.Add(1)
		go func(b backend.Backend) {
			defer wg.Done()
			ds, st := judgeBackend(ctx, sp, b.Name(), b)
			mu.Lock()
			divs = append(divs, ds...)
			statuses[b.Name()] = st
			mu.Unlock()
		}(b)
	}
	wg.Wait()
	return divs, statuses
}

// judgeBackend runs one backend on one spec under the spec's deadline
// and applies the divergence rules documented on the package.
func judgeBackend(ctx context.Context, sp spec, name string, b backend.Backend) ([]Divergence, string) {
	set := sp.set()
	bspec := backend.Spec{MaxLen: sp.budget, Seed: sp.seed, DuplicateSafe: sp.dup, Objective: sp.obj}
	tctx, cancel := context.WithTimeout(ctx, sp.timeout)
	defer cancel()
	res, err := backend.Run(tctx, b, set, bspec)

	div := func(kind, format string, args ...any) Divergence {
		return Divergence{
			Check:   "differential",
			Kind:    kind,
			Backend: name,
			Spec:    specLabel(sp),
			Detail:  fmt.Sprintf(format, args...),
		}
	}

	if err != nil {
		var incorrect *backend.IncorrectError
		if errors.As(err, &incorrect) {
			return []Divergence{div("incorrect-program",
				"claimed a kernel that fails central verification: %v", err)}, "error"
		}
		// Objectives are a distinct spec class: single-solution backends
		// have no solution set to rank, and their typed refusal is the
		// contract, not a failure — a no-claim outcome, like a timeout.
		// The same error on a shortest spec would be a real backend bug.
		var unsup *backend.UnsupportedObjectiveError
		if errors.As(err, &unsup) && sp.obj != enum.ObjectiveShortest {
			return nil, "unsupported-objective"
		}
		return []Divergence{div("backend-error", "%v", err)}, "error"
	}

	st := res.Status.String()
	switch res.Status {
	case backend.StatusFound:
		var ds []Divergence
		if len(res.Program) == 0 || res.Length != len(res.Program) {
			ds = append(ds, div("malformed-result",
				"found with %d instructions but Length=%d", len(res.Program), res.Length))
			return ds, st
		}
		// Independent re-verification: central verification already ran
		// inside backend.Run, so a failure here means the verifiers
		// disagree with themselves — worth its own divergence kind.
		if ce := verify.Counterexample(set, res.Program); ce != nil {
			ds = append(ds, div("incorrect-program", "re-verification fails on %v", ce))
		}
		if sp.dup {
			if ce := verify.DuplicateCounterexample(set, res.Program); ce != nil {
				ds = append(ds, div("incorrect-program", "re-verification fails on duplicate input %v", ce))
			}
		}
		if res.Length > sp.budget {
			ds = append(ds, div("budget-overrun", "length %d exceeds budget %d", res.Length, sp.budget))
		}
		if res.Length < sp.opt {
			ds = append(ds, div("beats-optimal",
				"length %d below the certified optimum %d — ground truth or verifier bug", res.Length, sp.opt))
		}
		if name == "enum" && res.Length != sp.opt {
			ds = append(ds, div("suboptimal",
				"enum found length %d, certified optimum is %d", res.Length, sp.opt))
		}
		if res.Optimal && res.Length != sp.opt {
			ds = append(ds, div("false-optimality-claim",
				"claims optimality at length %d, certified optimum is %d", res.Length, sp.opt))
		}
		return ds, st

	case backend.StatusNoProgram:
		// Sound only if the optimum really is out of budget. The padding
		// argument (m ≥ 1: append writes to a scratch register) makes
		// fixed-length and upper-bound refutations comparable: a kernel
		// of the optimal length extends to every longer length.
		if sp.opt <= sp.budget {
			return []Divergence{div("unsound-refutation",
				"refuted budget %d but a length-%d kernel exists", sp.budget, sp.opt)}, st
		}
		return nil, st

	case backend.StatusExhausted, backend.StatusTimedOut, backend.StatusCancelled:
		return nil, st // no claim

	default:
		return []Divergence{div("unexpected-status", "status %v from a direct Run", res.Status)}, st
	}
}
