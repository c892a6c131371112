// Package sortsynth synthesizes provably minimal branchless sorting
// kernels, reproducing "Synthesis of Sorting Kernels" (Ullrich & Hack,
// CGO 2025).
//
// A sorting kernel is a short straight-line program over mov/cmp/cmovl/
// cmovg (or movdqa/pmin/pmax) that sorts a fixed number of registers and
// serves as the base case of quicksort/mergesort. The package exposes
// the paper's enumerative A*/Dijkstra synthesizer with its heuristics and
// cuts:
//
//	set := sortsynth.NewCmovSet(3, 1)           // 3 values, 1 scratch register
//	res := sortsynth.SynthesizeBest(set, 11)    // paper config (III)
//	fmt.Println(res.Program.Format(3))
//
// Beyond single-kernel synthesis it can enumerate every optimal kernel
// (5602 for n=3), prove length lower bounds by exhaustion, verify kernels
// on the complete permutation and duplicate (weak-order) test suites, and
// statically score kernels with a microarchitectural cost model.
//
// The solver-based baselines the paper compares against (SMT, CP, ILP,
// Stoke-style MCMC, planning, MCTS) live in the internal packages and are
// driven by cmd/experiments.
package sortsynth

import (
	"context"
	"time"

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
	// Options configures the enumerative synthesizer (paper §3).
	Options = enum.Options
	// Result reports a synthesis run.
	Result = enum.Result
	// Trace collects search-progress samples (Figure 1).
	Trace = enum.Trace
	// Analysis is the static cost-model summary of a kernel.
	Analysis = uarch.Analysis
)

// Heuristic and cut selectors (paper §3.1, §3.5).
const (
	HeurNone      = enum.HeurNone
	HeurPermCount = enum.HeurPermCount
	HeurAsgCount  = enum.HeurAsgCount
	HeurDistMax   = enum.HeurDistMax

	CutNone     = enum.CutNone
	CutFactor   = enum.CutFactor
	CutAdditive = enum.CutAdditive
)

// NewCmovSet returns the mov/cmp/cmovl/cmovg instruction set for n values
// and m scratch registers (the paper uses m = 1).
func NewCmovSet(n, m int) *Set { return isa.NewCmov(n, m) }

// NewMinMaxSet returns the movdqa/pmin/pmax instruction set for n values
// and m scratch registers.
func NewMinMaxSet(n, m int) *Set { return isa.NewMinMax(n, m) }

// KnownOptimalLength returns the established minimal kernel length for
// the given set, when one is known: cmov 4/11/20/33 and min/max 3/8/15/26
// for n = 2..5 with one scratch register (paper §2.3, §5.4; the n=4 bound
// is proved by this repository's exhaustion mode, the n=5 values are the
// best known).
func KnownOptimalLength(set *Set) (int, bool) { return isa.KnownOptimalLength(set) }

// Synthesize runs the enumerative search with explicit options.
func Synthesize(set *Set, opt Options) *Result { return enum.Run(set, opt) }

// SynthesizeContext is Synthesize with cancellation: the search stops
// promptly when ctx is cancelled (Result.Cancelled) or its deadline
// expires (Result.TimedOut). This is what sortsynthd uses to abort
// searches on client disconnect and graceful shutdown.
func SynthesizeContext(ctx context.Context, set *Set, opt Options) *Result {
	return enum.RunContext(ctx, set, opt)
}

// SynthesizeBest synthesizes one minimal kernel with the paper's best
// configuration (III): permutation-count guidance, per-assignment
// viability pruning, the action guide, and the cut with k = 1, under the
// given length bound (pass the known optimal length, or an upper bound
// such as a sorting-network size).
func SynthesizeBest(set *Set, maxLen int) *Result {
	opt := enum.ConfigBest()
	opt.MaxLen = maxLen
	return enum.Run(set, opt)
}

// SynthesizeMinimal synthesizes a kernel of certified minimal length
// without requiring a known bound: a sorting-network kernel provides the
// upper bound, then the search alternates between finding shorter
// kernels and certifying nonexistence by exhaustion. Result.Proof
// reports whether minimality was certified within the per-step budget
// (0 = unlimited; the n=4 certification is a multi-week computation).
func SynthesizeMinimal(set *Set, stepBudget time.Duration) *Result {
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
	return enum.RunMinimal(set, upper, stepBudget)
}

// SynthesizeDuplicateSafe is SynthesizeBest over the weak-order test
// suite: the returned kernel provably sorts arbitrary integers including
// repeated values. The paper's permutation criterion (§2.3) is complete
// only for distinct values — 64% of the optimal n=3 kernels it admits
// mis-sort ties. For n = 3 and n = 4, duplicate-safety costs no extra
// instructions (verified by this repository's runs; see EXPERIMENTS.md).
func SynthesizeDuplicateSafe(set *Set, maxLen int) *Result {
	opt := enum.ConfigBest()
	opt.MaxLen = maxLen
	opt.DuplicateSafe = true
	return enum.Run(set, opt)
}

// EnumerateAll enumerates every minimal kernel of length at most maxLen
// using only optimality-preserving pruning (all 5602 kernels for the
// n=3 cmov set). maxSolutions caps the materialized programs
// (0 = unlimited); the exact count is Result.SolutionCount either way.
func EnumerateAll(set *Set, maxLen, maxSolutions int) *Result {
	opt := enum.ConfigAllSolutions()
	opt.MaxLen = maxLen
	opt.MaxSolutions = maxSolutions
	return enum.Run(set, opt)
}

// ProveNoKernel exhaustively searches all programs of length ≤ length
// with optimality-preserving pruning only. It returns true iff the space
// was exhausted without finding a kernel, certifying the lower bound
// (the paper's n=4 length-19 result).
func ProveNoKernel(set *Set, length int) (bool, *Result) {
	res := enum.Run(set, enum.ConfigProof(length))
	return res.Proof && res.Length == -1, res
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
