// Package sortsynth synthesizes provably minimal branchless sorting
// kernels, reproducing "Synthesis of Sorting Kernels" (Ullrich & Hack,
// CGO 2025).
//
// A sorting kernel is a short straight-line program over mov/cmp/cmovl/
// cmovg (or movdqa/pmin/pmax) that sorts a fixed number of registers and
// serves as the base case of quicksort/mergesort. The package runs the
// paper's enumerative synthesizer, and every kernel it returns has been
// verified on the complete test suite; a kernel that fails it comes back
// as an error, never as a result:
//
//	set := sortsynth.NewCmovSet(3, 1)             // 3 values, 1 scratch register
//	res, err := sortsynth.SynthesizeBest(set, 11) // paper config (III)
//	if err == nil && res.Status == sortsynth.StatusFound {
//		fmt.Println(res.Program.Format(3))
//	}
//
// Beyond single-kernel synthesis it can enumerate every optimal kernel
// (5602 for n=3), certify minimality and prove length lower bounds by
// exhaustion, verify kernels on the complete permutation and duplicate
// (weak-order) test suites, and statically score kernels with a
// microarchitectural cost model.
//
// The solver-based baselines the paper compares against (SMT, CP, ILP,
// Stoke-style MCMC, planning, MCTS) live in the internal packages and are
// driven by cmd/experiments.
package sortsynth

import (
	"context"
	"time"

	"sortsynth/internal/backend"
	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/kernels"
	"sortsynth/internal/peephole"
	"sortsynth/internal/semantics"
	"sortsynth/internal/sortnet"
	"sortsynth/internal/uarch"
	"sortsynth/internal/verify"
)

// Re-exported core types. The aliases keep the public API in one import
// while the implementation stays in focused internal packages.
type (
	// Set is an instruction set instantiated for n sorted and m scratch
	// registers.
	Set = isa.Set
	// Instr is a single two-operand instruction.
	Instr = isa.Instr
	// Program is a straight-line instruction sequence.
	Program = isa.Program
	// Result is a verified synthesis outcome; Program, Length and
	// Optimal describe the kernel when Status is StatusFound.
	Result = backend.Result
	// Status classifies a synthesis outcome.
	Status = backend.Status
	// Analysis is the static cost-model summary of a kernel.
	Analysis = uarch.Analysis
)

// Synthesis outcomes (Result.Status).
const (
	// StatusFound: a verified kernel within the length bound.
	StatusFound = backend.StatusFound
	// StatusNoProgram: proven by exhaustion, no kernel within the length
	// bound exists.
	StatusNoProgram = backend.StatusNoProgram
	// StatusExhausted: the search ended without a kernel, but under
	// pruning that does not preserve optimality, so nothing is proven.
	StatusExhausted = backend.StatusExhausted
	// StatusTimedOut: the step budget expired before an outcome.
	StatusTimedOut = backend.StatusTimedOut
)

// NewCmovSet returns the mov/cmp/cmovl/cmovg instruction set for n values
// and m scratch registers (the paper uses m = 1).
func NewCmovSet(n, m int) *Set { return isa.NewCmov(n, m) }

// NewMinMaxSet returns the movdqa/pmin/pmax instruction set for n values
// and m scratch registers.
func NewMinMaxSet(n, m int) *Set { return isa.NewMinMax(n, m) }

// KnownOptimalLength returns the established minimal kernel length for
// the given set, when one is known: cmov 4/11/20/33 and min/max 3/8/15/23
// for n = 2..5 with one scratch register (paper §2.3, §5.4; cmov n=4
// rests on the paper's proof, the other n ≤ 4 bounds on ProveNoKernel,
// the n=5 values are the best known; min/max n=5 is 23 here against the
// paper's 26).
func KnownOptimalLength(set *Set) (int, bool) { return isa.KnownOptimalLength(set) }

// SynthesizeBest synthesizes one minimal kernel with the paper's best
// configuration (III): permutation-count guidance, per-assignment
// viability pruning, the action guide, and the cut with k = 1, under the
// given length bound. Pass the known optimal length or an upper bound
// such as a sorting-network size: a bound above KnownOptimalLength is
// searched at the known optimum first. The guide and the cut do not
// preserve optimality, so StatusNoProgram comes from a proved optimum or
// a capped exhaustive re-search, and StatusExhausted proves nothing;
// see ProveNoKernel.
func SynthesizeBest(set *Set, maxLen int) (*Result, error) {
	return backend.Run(context.TODO(), &backend.Enum{Opt: enum.ConfigBest()}, set,
		backend.Spec{MaxLen: maxLen})
}

// SynthesizeMinimal synthesizes a kernel of certified minimal length
// without requiring a known bound: a sorting-network kernel provides the
// upper bound, then each step searches one instruction below the last
// kernel found, certifying by exhaustion when the guided search comes up
// empty. Result.Optimal reports whether minimality was certified within
// the per-step budget, which bounds each search of a step (0 =
// unlimited; an in-repo n=4 certification is a multi-week computation).
func SynthesizeMinimal(set *Set, stepBudget time.Duration) (*Result, error) {
	var upper int
	if set.N <= 8 {
		upper = sortnet.Optimal(set.N).Size()
	} else {
		upper = sortnet.Batcher(set.N).Size()
	}
	if set.Kind == isa.KindCmov {
		upper *= 4
	} else {
		upper *= 3
	}
	return minimal(set, upper, stepBudget)
}

// minimal is SynthesizeMinimal below a given upper bound. Each step is
// backend.Enum under ConfigBest, then ProveNoKernel if it exhausts, so a
// step that finds nothing ends in a certified StatusNoProgram (or a
// timeout), and a kernel found by the exhaustive search is minimal.
func minimal(set *Set, upper int, stepBudget time.Duration) (*Result, error) {
	b := &backend.Enum{Opt: enum.ConfigBest()}
	step := func(budget int) (*Result, error) {
		res, err := runTimed(b, set, backend.Spec{MaxLen: budget}, stepBudget)
		if err != nil || res.Status != StatusExhausted {
			return res, err
		}
		return ProveNoKernel(set, budget, stepBudget)
	}
	best, err := step(upper)
	if err != nil {
		return nil, err
	}
	for best.Status == StatusFound && !best.Optimal && best.Length > 1 {
		next, err := step(best.Length - 1)
		if err != nil {
			return nil, err
		}
		if next.Status != StatusFound {
			best.Optimal = next.Status == StatusNoProgram
			break
		}
		best = next
	}
	return best, nil
}

// SynthesizeDuplicateSafe is SynthesizeBest over the weak-order test
// suite: the returned kernel provably sorts arbitrary integers including
// repeated values. The paper's permutation criterion (§2.3) is complete
// only for distinct values — 64% of the optimal n=3 kernels it admits
// mis-sort ties. For n = 3 and n = 4, duplicate-safety costs no extra
// instructions (verified by this repository's runs; see EXPERIMENTS.md).
func SynthesizeDuplicateSafe(set *Set, maxLen int) (*Result, error) {
	return backend.Run(context.TODO(), &backend.Enum{Opt: enum.ConfigBest()}, set,
		backend.Spec{MaxLen: maxLen, DuplicateSafe: true})
}

// EnumerateAll enumerates every minimal kernel of length at most maxLen
// using only optimality-preserving pruning (all 5602 kernels for the
// n=3 cmov set), each one verified. maxSolutions caps the materialized
// programs in Result.Programs (0 = unlimited); the exact count is
// Result.Solutions either way.
func EnumerateAll(set *Set, maxLen, maxSolutions int) (*Result, error) {
	opt := enum.ConfigAllSolutions()
	opt.MaxSolutions = maxSolutions
	return backend.Run(context.TODO(), &backend.Enum{Opt: opt}, set, backend.Spec{MaxLen: maxLen})
}

// ProveNoKernel exhaustively searches all programs of length ≤ length
// with optimality-preserving pruning only. StatusNoProgram certifies the
// lower bound (the paper's n=4 length-19 result); StatusFound disproves
// it with a verified kernel of minimal length. A search still running
// after timeout (0 = unlimited) stops with StatusTimedOut, which claims
// nothing.
func ProveNoKernel(set *Set, length int, timeout time.Duration) (*Result, error) {
	opt := enum.ConfigProof(length)
	opt.AllSolutions = false // a disproof needs one witness, not the solution set
	return runTimed(&backend.Enum{Opt: opt}, set, backend.Spec{MaxLen: length}, timeout)
}

// runTimed is backend.Run stopped after timeout (0 = unlimited).
func runTimed(b backend.Backend, set *Set, spec backend.Spec, timeout time.Duration) (*Result, error) {
	ctx := context.TODO()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return backend.Run(ctx, b, set, spec)
}

// Verify reports whether p sorts every permutation of 1..n — the paper's
// §2.3 correctness criterion, complete for inputs with distinct values.
func Verify(set *Set, p Program) bool { return verify.Sorts(set, p) }

// VerifyDuplicates additionally checks all inputs with repeated values
// (every canonical weak order), which the permutation suite does not
// cover: a kernel can sort all n! permutations yet mis-sort ties.
func VerifyDuplicates(set *Set, p Program) bool { return verify.SortsDuplicates(set, p) }

// Counterexample returns an input that p fails to sort (first searching
// permutations, then weak orders), or nil if p is fully correct.
func Counterexample(set *Set, p Program) []int {
	if ce := verify.Counterexample(set, p); ce != nil {
		return ce
	}
	return verify.DuplicateCounterexample(set, p)
}

// Parse parses a textual kernel ("mov s1 r1; cmp r1 r2; …") for a machine
// with n sorted registers.
func Parse(text string, n int) (Program, error) { return isa.ParseProgram(text, n) }

// Analyze statically scores a kernel with the microarchitectural cost
// model: instruction-weight score, critical path, ILP, and estimated
// steady-state throughput.
func Analyze(set *Set, p Program) Analysis { return uarch.Analyze(set, p) }

// Optimize runs the classical scalar compiler optimizations (copy
// propagation and dead-code elimination) on a kernel. On minimal
// synthesized kernels and on sorting-network kernels it is the identity
// — the paper's §2.1 point that beating the network by an instruction
// requires semantic reasoning classical passes cannot do.
func Optimize(set *Set, p Program) Program { return peephole.Optimize(set, p) }

// Expr is a min/max/ite expression over the input values — the
// denotational reading of a kernel (paper §2.1).
type Expr = semantics.Expr

// Denote symbolically executes a kernel, returning one expression per
// output register. For the paper's §2.1 kernel this yields e.g.
// r1 = min(b, min(a, c)).
func Denote(set *Set, p Program) []*Expr { return semantics.Symbolic(set, p) }

// ExprEquiv decides expression equivalence over n inputs by exhaustive
// evaluation on all weak orderings — the "semantical reasoning on
// min/max/ite expressions" of §2.1, mechanized.
func ExprEquiv(n int, x, y *Expr) bool { return semantics.Equiv(n, x, y) }

// AsmX86 renders a kernel as the Intel-syntax x86-64 assembly of the
// paper's listings (rax/rbx/… + rdi scratch for cmov kernels,
// xmm0../xmm7.. with movdqa/pminsd/pmaxsd for min/max kernels).
func AsmX86(set *Set, p Program) string { return kernels.AsmX86(set, p) }
