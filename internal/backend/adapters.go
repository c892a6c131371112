package backend

import (
	"context"
	"fmt"

	"sortsynth/internal/cp"
	"sortsynth/internal/enum"
	"sortsynth/internal/ilp"
	"sortsynth/internal/isa"
	"sortsynth/internal/mcts"
	"sortsynth/internal/plan"
	"sortsynth/internal/smt"
	"sortsynth/internal/stoke"
)

// fixedLen validates the length budget for the fixed-length backends.
func fixedLen(name string, spec Spec) (int, error) {
	if spec.MaxLen <= 0 {
		return 0, fmt.Errorf("backend %s: spec.MaxLen must be > 0 (fixed-length backend)", name)
	}
	return spec.MaxLen, nil
}

// optimalityPreserving reports whether an enum configuration guarantees
// the first solution found is minimal: an admissible heuristic and no
// non-optimality-preserving pruning (§3.2 action guide, §3.5 cut).
func optimalityPreserving(o enum.Options) bool {
	admissible := o.Heuristic == enum.HeurNone || o.Heuristic == enum.HeurDistMax
	return admissible && o.Cut == enum.CutNone && !o.UseActionGuide
}

// proofBudget caps the certifying search in expanded states: it covers
// every n ≤ 3 budget (cmov n=3 at length 10 takes 2,625 states, 4,315
// duplicate-safe) and bounds the extra work elsewhere. A var so that a
// test can lower it.
var proofBudget int64 = 1 << 18

// Enum adapts the §3 enumerative Dijkstra/A* engine: a search under
// Opt, with Spec overriding MaxLen, DuplicateSafe and Objective. It
// refutes a budget only with a proof, one rule in order:
//
//  1. Under a configuration that does not preserve optimality (such as
//     ConfigBest), a budget below the set's proved optimum
//     (isa.ProvedOptimalLength) answers StatusNoProgram without a
//     search; a duplicate-safe kernel sorts every permutation too.
//  2. A budget above the known optimal length L* (isa.KnownOptimalLength)
//     is searched at L* first, since ConfigBest's first find under slack
//     can be longer (min/max n=4 at MaxLen 16 finds 16). Only when that
//     search comes up empty without a stop is the budget searched.
//  3. A search that exhausts without a proof (the cut or the action
//     guide voids it) is re-run with only optimality-preserving pruning,
//     capped at proofBudget states: its exhaustion refutes, its find is
//     returned, and a spent cap leaves StatusExhausted.
//
// The reported effort sums every search run.
type Enum struct {
	Opt enum.Options
}

// Name implements Backend.
func (b *Enum) Name() string { return "enum" }

// Synthesize implements Backend. Stats: Nodes = expanded states,
// Generated = produced successors. Optimal is asserted only when the
// search that answered is optimality-preserving (admissible heuristic,
// no §3.5 cut, no action guide), where the found length is certified
// minimal by the search order itself. A search stopped by its context
// reports the stop even when it holds a partial enumeration.
func (b *Enum) Synthesize(ctx context.Context, set *isa.Set, spec Spec) (*Result, error) {
	opt := b.Opt
	if spec.MaxLen > 0 {
		opt.MaxLen = spec.MaxLen
	}
	opt.DuplicateSafe = spec.DuplicateSafe
	opt.Objective = spec.Objective
	budget := opt.MaxLen
	res := &Result{Backend: b.Name(), Length: budget}
	if lstar, _, ok := isa.ProvedOptimalLength(set); ok && 0 < budget && budget < lstar && !optimalityPreserving(opt) {
		res.Status = StatusNoProgram
		return res, nil
	}
	if lstar, ok := isa.KnownOptimalLength(set); ok && budget > lstar {
		opt.MaxLen = lstar
	}
	r := enum.RunContext(ctx, set, opt)
	if r.Err != nil {
		return nil, r.Err
	}
	if r.Program == nil && !r.Cancelled && !r.TimedOut && opt.MaxLen < budget {
		first := r
		opt.MaxLen = budget
		if r = enum.RunContext(ctx, set, opt); r.Err != nil {
			return nil, r.Err
		}
		r.Expanded += first.Expanded
		r.Generated += first.Generated
		r.Elapsed += first.Elapsed
	}
	if r.Program == nil && r.Exhausted && !r.Proof {
		proof := enum.ConfigProof(opt.MaxLen)
		proof.AllSolutions = false
		proof.DuplicateSafe, proof.Objective = opt.DuplicateSafe, opt.Objective
		proof.StateBudget = proofBudget
		pr := enum.RunContext(ctx, set, proof)
		if pr.Err != nil {
			return nil, pr.Err
		}
		pr.Expanded += r.Expanded
		pr.Generated += r.Generated
		pr.Elapsed += r.Elapsed
		r, opt = pr, proof
	}
	res.Stats = Stats{Elapsed: r.Elapsed, Nodes: r.Expanded, Generated: r.Generated}
	switch {
	case r.Cancelled:
		res.Status = stopStatus(ctx)
	case r.TimedOut:
		res.Status = StatusTimedOut
	case r.Program != nil:
		res.Status = StatusFound
		res.Program = r.Program
		res.Programs = r.Programs
		res.Length = r.Length
		res.Optimal = optimalityPreserving(opt)
		res.Solutions = r.SolutionCount
		res.Cost = r.Cost
		res.RerankTruncated = r.RerankTruncated
	case r.Exhausted && r.Proof:
		res.Status = StatusNoProgram
	default:
		res.Status = StatusExhausted
	}
	return res, nil
}

// SMT adapts the §4 SAT/SMT synthesizer (PERM or CEGIS protocol).
type SMT struct {
	Opt   smt.Options
	CEGIS bool
}

// NewSMT wraps the smt engine; cegis selects counterexample-guided
// refinement over the one-shot all-permutations query. Spec.MaxLen is
// the exact program length.
func NewSMT(opt smt.Options, cegis bool) *SMT { return &SMT{Opt: opt, CEGIS: cegis} }

// Name implements Backend.
func (b *SMT) Name() string { return "smt" }

// Synthesize implements Backend. Stats: Nodes = CDCL conflicts,
// Iterations = CEGIS refinement rounds.
func (b *SMT) Synthesize(ctx context.Context, set *isa.Set, spec Spec) (*Result, error) {
	if err := requireShortest(b.Name(), spec); err != nil {
		return nil, err
	}
	length, err := fixedLen(b.Name(), spec)
	if err != nil {
		return nil, err
	}
	opt := b.Opt
	opt.Length = length
	if spec.DuplicateSafe && b.CEGIS {
		opt.CEGISArbitrary = true
	}
	var r *smt.Result
	if b.CEGIS {
		r = smt.SynthCEGISContext(ctx, set, opt)
	} else {
		r = smt.SynthPermContext(ctx, set, opt)
	}
	res := &Result{
		Backend: b.Name(),
		Length:  length,
		Stats:   Stats{Elapsed: r.Elapsed, Nodes: r.Conflicts, Iterations: int64(r.Iterations)},
	}
	switch r.Status {
	case smt.Found:
		res.Status = StatusFound
		res.Program = r.Program
	case smt.NoProg:
		res.Status = StatusNoProgram
	case smt.Cancelled:
		res.Status = stopStatus(ctx)
	default:
		res.Status = StatusExhausted
	}
	return res, nil
}

// CP adapts the finite-domain constraint solver (§4 CP model).
type CP struct{ Opt cp.Options }

// NewCP wraps the cp engine. Spec.MaxLen is the exact program length.
func NewCP(opt cp.Options) *CP { return &CP{Opt: opt} }

// Name implements Backend.
func (b *CP) Name() string { return "cp" }

// Synthesize implements Backend. Stats: Nodes = DFS nodes.
func (b *CP) Synthesize(ctx context.Context, set *isa.Set, spec Spec) (*Result, error) {
	if err := requireShortest(b.Name(), spec); err != nil {
		return nil, err
	}
	length, err := fixedLen(b.Name(), spec)
	if err != nil {
		return nil, err
	}
	opt := b.Opt
	opt.Length = length
	r := cp.SynthesizeContext(ctx, set, opt)
	res := &Result{
		Backend: b.Name(),
		Length:  length,
		Stats:   Stats{Elapsed: r.Elapsed, Nodes: r.Nodes},
	}
	switch {
	case r.Program != nil:
		res.Status = StatusFound
		res.Program = r.Program
	case r.Cancelled:
		res.Status = stopStatus(ctx)
	case r.Exhausted:
		res.Status = StatusNoProgram
	default:
		res.Status = StatusExhausted
	}
	return res, nil
}

// ILP adapts the big-M branch-and-bound solver (§4.2 CP-ILP model).
type ILP struct{ Opt ilp.Options }

// NewILP wraps the ilp engine. Spec.MaxLen is the exact program length.
func NewILP(opt ilp.Options) *ILP { return &ILP{Opt: opt} }

// Name implements Backend.
func (b *ILP) Name() string { return "ilp" }

// Synthesize implements Backend. Stats: Nodes = branch-and-bound nodes.
func (b *ILP) Synthesize(ctx context.Context, set *isa.Set, spec Spec) (*Result, error) {
	if err := requireShortest(b.Name(), spec); err != nil {
		return nil, err
	}
	length, err := fixedLen(b.Name(), spec)
	if err != nil {
		return nil, err
	}
	opt := b.Opt
	opt.Length = length
	r := ilp.SynthesizeContext(ctx, set, opt)
	res := &Result{
		Backend: b.Name(),
		Length:  length,
		Stats:   Stats{Elapsed: r.Elapsed, Nodes: r.Nodes},
	}
	switch {
	case r.Program != nil:
		res.Status = StatusFound
		res.Program = r.Program
	case r.Cancelled:
		res.Status = stopStatus(ctx)
	case r.Exhausted:
		res.Status = StatusNoProgram
	default:
		res.Status = StatusExhausted
	}
	return res, nil
}

// Stoke adapts the MCMC stochastic superoptimizer (§5.2 baseline).
type Stoke struct{ Opt stoke.Options }

// NewStoke wraps the stoke engine. Spec.MaxLen is the exact (fixed)
// chain program length and Spec.Seed seeds the chain.
func NewStoke(opt stoke.Options) *Stoke { return &Stoke{Opt: opt} }

// Name implements Backend.
func (b *Stoke) Name() string { return "stoke" }

// Synthesize implements Backend. Stats: Nodes = MCMC proposals. The
// chain cannot refute, so a spent budget is always StatusExhausted.
func (b *Stoke) Synthesize(ctx context.Context, set *isa.Set, spec Spec) (*Result, error) {
	if err := requireShortest(b.Name(), spec); err != nil {
		return nil, err
	}
	length, err := fixedLen(b.Name(), spec)
	if err != nil {
		return nil, err
	}
	opt := b.Opt
	opt.Length = length
	opt.Seed = spec.Seed
	r := stoke.RunContext(ctx, set, opt)
	res := &Result{
		Backend: b.Name(),
		Length:  length,
		Stats:   Stats{Elapsed: r.Elapsed, Nodes: r.Proposals},
	}
	switch {
	case r.Program != nil:
		res.Status = StatusFound
		res.Program = r.Program
	case r.Cancelled:
		res.Status = stopStatus(ctx)
	default:
		res.Status = StatusExhausted
	}
	return res, nil
}

// MCTS adapts the UCT tree-search baseline (§5.2, AlphaDev skeleton).
type MCTS struct{ Opt mcts.Options }

// NewMCTS wraps the mcts engine. Spec.MaxLen is the episode length
// limit and Spec.Seed seeds rollouts.
func NewMCTS(opt mcts.Options) *MCTS { return &MCTS{Opt: opt} }

// Name implements Backend.
func (b *MCTS) Name() string { return "mcts" }

// Synthesize implements Backend. Stats: Nodes = tree nodes,
// Iterations = MCTS iterations. Like stoke, it cannot refute.
func (b *MCTS) Synthesize(ctx context.Context, set *isa.Set, spec Spec) (*Result, error) {
	if err := requireShortest(b.Name(), spec); err != nil {
		return nil, err
	}
	opt := b.Opt
	if spec.MaxLen > 0 {
		opt.MaxLen = spec.MaxLen
	}
	if opt.MaxLen <= 0 {
		return nil, fmt.Errorf("backend %s: spec.MaxLen must be > 0 (episode length limit)", b.Name())
	}
	opt.Seed = spec.Seed
	r := mcts.RunContext(ctx, set, opt)
	res := &Result{
		Backend: b.Name(),
		Length:  opt.MaxLen,
		Stats:   Stats{Elapsed: r.Elapsed, Nodes: int64(r.Nodes), Iterations: r.Iterations},
	}
	switch {
	case r.Program != nil:
		res.Status = StatusFound
		res.Program = r.Program
		res.Length = len(r.Program)
	case r.Cancelled:
		res.Status = stopStatus(ctx)
	default:
		res.Status = StatusExhausted
	}
	return res, nil
}

// Plan adapts the STRIPS planner formulation (§5.2 Plan-Parallel /
// Plan-Seq).
type Plan struct{ Opt plan.Options }

// NewPlan wraps the planner. Spec.MaxLen bounds the accepted plan
// length (0 = unbounded).
func NewPlan(opt plan.Options) *Plan { return &Plan{Opt: opt} }

// Name implements Backend.
func (b *Plan) Name() string { return "plan" }

// Synthesize implements Backend. Stats: Nodes = expanded states,
// Generated = generated states. GBFS plans are not length-minimal, so a
// plan longer than Spec.MaxLen maps to StatusExhausted rather than a
// refutation.
func (b *Plan) Synthesize(ctx context.Context, set *isa.Set, spec Spec) (*Result, error) {
	if err := requireShortest(b.Name(), spec); err != nil {
		return nil, err
	}
	prob := plan.Encode(set, nil)
	r := plan.SolveContext(ctx, prob, b.Opt)
	res := &Result{
		Backend: b.Name(),
		Length:  spec.MaxLen,
		Stats:   Stats{Elapsed: r.Elapsed, Nodes: r.Expanded, Generated: r.Generated},
	}
	switch {
	case r.Plan != nil && (spec.MaxLen == 0 || len(r.Plan) <= spec.MaxLen):
		res.Status = StatusFound
		res.Program = plan.PlanToProgram(set, r.Plan)
		res.Length = len(r.Plan)
	case r.Plan != nil: // found, but over the length budget
		res.Status = StatusExhausted
	case r.Cancelled:
		res.Status = stopStatus(ctx)
	case r.Exhausted:
		res.Status = StatusNoProgram
	default:
		res.Status = StatusExhausted
	}
	return res, nil
}
