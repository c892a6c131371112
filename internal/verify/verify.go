// Package verify checks sorting-kernel correctness and classifies
// solution sets.
//
// Correctness follows paper §2.3: a constant-free kernel is correct for
// all inputs iff it sorts every permutation of 1..n, so the permutation
// test suite is both sound and complete. For defense in depth the package
// also offers randomized checking on arbitrary integers (including
// duplicates), which exercises the same property the formal criterion
// implies.
//
// One subtlety the paper's criterion glosses over: scratch registers are
// zero-initialized, so a program that reads a scratch register before
// writing it is not constant-free — the initial 0 leaks in as a constant.
// Such a program can sort every positive-valued test input (where 0 loses
// every max and wins every min) yet fail on inputs at or below zero;
// "max s1 r1; min r1 r2; max r2 s1" is a three-instruction example found
// by FuzzVerifySorts. Sorts and Counterexample intentionally keep the
// paper's permutation criterion; SortsDuplicates and
// DuplicateCounterexample close the hole by also sliding the test values
// past 0 whenever ReadsInitialScratch reports the leak is observable.
package verify

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"sortsynth/internal/isa"
	"sortsynth/internal/perm"
	"sortsynth/internal/state"
)

// Sorts reports whether p sorts every permutation of 1..n on the given
// machine — the paper's correctness criterion (equation 1 specialised to
// the permutation test suite).
func Sorts(set *isa.Set, p isa.Program) bool {
	m := state.NewMachine(set)
	for _, a := range m.Initial() {
		if !m.Sorted(m.RunAsg(a, p)) {
			return false
		}
	}
	return true
}

// SortsDuplicates reports whether p sorts every integer input, including
// repeated and negative values. Testing all canonical weak orders
// (perm.WeakOrders) covers every ordering class of the inputs; when p can
// observe the zero-initialized scratch registers (ReadsInitialScratch)
// the suite additionally varies where the constant 0 falls relative to
// the inputs, which keeps the check sound and complete for arbitrary
// integers. This is strictly stronger than the paper's §2.3 criterion:
// permutations of distinct values never make cmp leave both flags clear,
// so a kernel can pass all n! permutations yet mis-sort ties (see
// EXPERIMENTS.md).
func SortsDuplicates(set *isa.Set, p isa.Program) bool {
	return DuplicateCounterexample(set, p) == nil
}

// DuplicateCounterexample returns an integer input that p fails to sort
// correctly (ascending and multiset-preserving), or nil.
func DuplicateCounterexample(set *isa.Set, p isa.Program) []int {
	orders := perm.WeakOrders(set.N)
	r := newRunner(set, p)
	if !ReadsInitialScratch(set, p) {
		// No initial scratch value can flow into the computation, so p is
		// comparison-only over its inputs and one representative per weak
		// order decides every integer input.
		for _, in := range orders {
			if !r.sorts(in) {
				return in
			}
		}
		return nil
	}
	// p can observe the zero-initialized scratch registers, so its
	// behaviour depends on the ordering class of the inputs *plus* the
	// constant 0. Realize each weak order with even values 2·v and slide
	// them down by s: s=0 puts every input above 0, s=2j makes the j-th
	// distinct value equal 0, s=2j+1 puts 0 strictly between the j-th and
	// j+1-th, and s=2k+1 puts every input below 0 — one representative
	// per ordering class of inputs ∪ {0}.
	shifted := make([]int, set.N)
	for _, in := range orders {
		k := 0
		for _, v := range in {
			k = max(k, v)
		}
		for s := 0; s <= 2*k+1; s++ {
			for i, v := range in {
				shifted[i] = 2*v - s
			}
			if !r.sorts(shifted) {
				return shifted
			}
		}
	}
	return nil
}

// ReadsInitialScratch reports whether running p can observe the initial
// (zero) value of a scratch register: some instruction reads an s-register
// that no earlier instruction has definitely written. Programs for which
// this is false are genuinely constant-free, so §2.3's ordering-class
// argument applies to them unchanged; programs for which it is true carry
// the constant 0 and need the extended suites. The check is a
// conservative static dataflow pass: a conditional move does not count as
// initializing its destination (the old value survives when the move is
// not taken), so it can report true for a program whose uninitialized
// read turns out to be harmless — fine for its role of gating the
// cheaper suite.
func ReadsInitialScratch(set *isa.Set, p isa.Program) bool {
	if set.M == 0 {
		return false
	}
	init := make([]bool, set.Regs())
	for i := 0; i < set.N; i++ {
		init[i] = true
	}
	for _, in := range p {
		switch in.Op {
		case isa.Mov:
			if !init[in.Src] {
				return true
			}
			init[in.Dst] = true
		case isa.Cmp:
			if !init[in.Dst] || !init[in.Src] {
				return true
			}
		case isa.Cmovl, isa.Cmovg:
			// Reads src if taken and keeps dst's old value if not, so
			// both operands must already be initialized, and dst does not
			// become initialized.
			if !init[in.Dst] || !init[in.Src] {
				return true
			}
		case isa.Min, isa.Max:
			if !init[in.Dst] || !init[in.Src] {
				return true
			}
			init[in.Dst] = true
		}
	}
	return false
}

// Counterexample returns a permutation of 1..n that p fails to sort, or
// nil if p is correct. Failing means the output is not the ascending
// rearrangement of the input: merely checking ascending order would
// accept value-destroying programs ("mov r1 r2" leaves every register
// equal, which is trivially ordered), so the multiset check is part of
// the criterion, exactly as in SortsRandom.
func Counterexample(set *isa.Set, p isa.Program) []int {
	in := make([]int, set.N)
	for i := range in {
		in[i] = i + 1
	}
	regs := make([]int, set.Regs())
	for {
		// The ascending rearrangement of a permutation of 1..n is 1..n.
		for i, v := range state.RunIntsIn(regs, set, p, in) {
			if v != i+1 {
				return in
			}
		}
		if !perm.Next(in) {
			return nil
		}
	}
}

// SortsRandom checks p on count random inputs drawn from [-bound, bound]
// (duplicates included), verifying the full §2.3 criterion: the output is
// ascending and a multiset permutation of the input. It returns the first
// failing input, or nil.
//
// The bound is a magnitude: a negative bound means its absolute value
// (it used to panic inside rand.Intn), and bounds so large that the
// interval width 2·bound+1 would overflow an int are clamped to the
// largest width that fits. A count ≤ 0 checks nothing and returns nil.
func SortsRandom(set *isa.Set, p isa.Program, count int, bound int, seed int64) []int {
	if bound < 0 {
		if bound == math.MinInt {
			bound = math.MaxInt
		} else {
			bound = -bound
		}
	}
	if bound > (math.MaxInt-1)/2 {
		bound = (math.MaxInt - 1) / 2
	}
	rng := rand.New(rand.NewSource(seed))
	r := newRunner(set, p)
	in := make([]int, set.N)
	for t := 0; t < count; t++ {
		for i := range in {
			in[i] = rng.Intn(2*bound+1) - bound
		}
		if !r.sorts(in) {
			return in
		}
	}
	return nil
}

// runner checks one program on many inputs, reusing its buffers.
type runner struct {
	set        *isa.Set
	p          isa.Program
	regs, want []int
}

func newRunner(set *isa.Set, p isa.Program) *runner {
	return &runner{set: set, p: p, regs: make([]int, set.Regs()), want: make([]int, set.N)}
}

// sorts reports whether p leaves r1..rn holding the ascending
// rearrangement of in: ascending and multiset-preserving.
func (r *runner) sorts(in []int) bool {
	copy(r.want, in)
	slices.Sort(r.want)
	return slices.Equal(state.RunIntsIn(r.regs, r.set, r.p, in), r.want)
}

// Equivalent reports whether p and q compute the same r1..rn outputs on
// every permutation of 1..n. By the constant-freeness argument of §2.3
// this implies behavioural equivalence on all inputs.
func Equivalent(set *isa.Set, p, q isa.Program) bool {
	m := state.NewMachine(set)
	for _, a := range m.Initial() {
		pa, qa := m.RunAsg(a, p), m.RunAsg(a, q)
		if m.Proj(pa) != m.Proj(qa) {
			return false
		}
	}
	return true
}

// CommandKey returns the canonical key of a program's command
// combination: how often each command mnemonic occurs. The paper observes
// that the 5602 optimal n=3 solutions use only 23 distinct command
// combinations (§5.1) — most solutions are reorderings and register
// renamings of one another, which leave the command counts unchanged.
func CommandKey(p isa.Program) [isa.NumOps]int {
	return p.OpCounts()
}

// DistinctCommandKeys returns the number of distinct command combinations
// among the given programs.
func DistinctCommandKeys(programs []isa.Program) int {
	seen := make(map[[isa.NumOps]int]struct{}, 64)
	for _, p := range programs {
		seen[CommandKey(p)] = struct{}{}
	}
	return len(seen)
}

// InstructionMultisetKey returns a finer canonical key: the multiset of
// concrete instructions, ignoring only instruction order. Useful for
// analyzing how much of the solution space is pure reordering.
func InstructionMultisetKey(set *isa.Set, p isa.Program) string {
	lines := make([]string, len(p))
	for i, in := range p {
		lines[i] = in.Format(set.N)
	}
	sort.Strings(lines)
	return strings.Join(lines, ";")
}

// InstrMix summarises a program's instruction mix the way the paper's
// §5.3 tables report it: compare, plain move, and conditional-move
// counts, plus everything else.
type InstrMix struct {
	Cmp, Mov, CMov, Other int
}

// Mix returns the instruction mix of p.
func Mix(p isa.Program) InstrMix {
	var m InstrMix
	for _, in := range p {
		switch in.Op {
		case isa.Cmp:
			m.Cmp++
		case isa.Mov:
			m.Mov++
		case isa.Cmovl, isa.Cmovg:
			m.CMov++
		default:
			m.Other++
		}
	}
	return m
}

// String renders the mix as "cmp=3 mov=8 cmov=6 other=0".
func (m InstrMix) String() string {
	return fmt.Sprintf("cmp=%d mov=%d cmov=%d other=%d", m.Cmp, m.Mov, m.CMov, m.Other)
}
