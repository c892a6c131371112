// Package sortgen generates complete sorting libraries from synthesized
// kernels: the deployment story of the paper (§1, §5.3), where the
// n ≤ 5 kernels matter because they sit inside real sorts, not because
// anyone sorts exactly five elements.
//
// The package has two halves:
//
//   - a composer (Compose) that plans a fully branchless sorter for a
//     fixed small n by covering the array with synthesized-kernel blocks
//     and gluing the sorted runs with Batcher odd-even merge layers, and
//     a pattern-defeating quicksort (HybridSort) for arbitrary or
//     dynamic n whose ≤ 16-element base cases are the kernels and the
//     composed sorters, compiled into zleaves.go; and
//   - an emitter (Plan.GoFile) that renders a plan as compilable,
//     gofmt-clean Go source, next to an in-process interpreter
//     (Plan.Sorter) for serving a sorter without a codegen round-trip.
//
// Every plan is certified at composition time: each merge layer is
// exhaustively checked over all (m+1)·(k+1) sorted 0-1 run pairs (the
// 0-1 principle restricted to merge inputs), and the kernel blocks are
// synthesized programs that were verified over all n! permutations and
// the duplicate suite when they entered internal/kernels.
package sortgen

import (
	"fmt"

	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/kernels"
	"sortsynth/internal/sortnet"
)

// MaxKernelN is the largest block a synthesized kernel covers; beyond it
// the composer merges and the hybrid sorter partitions.
const MaxKernelN = 5

// Block is one kernel application in a plan: the synthesized kernel for
// length N sorts the elements [Lo, Lo+N). Blocks of length ≤ 1 are
// already sorted and cost nothing; a block of length 2 is a single
// compare-and-swap.
type Block struct {
	Lo int
	N  int
}

// Merge is one merge layer: an oblivious comparator schedule (absolute
// element indices) that merges the sorted runs [Lo, Lo+M) and
// [Lo+M, Lo+M+K).
type Merge struct {
	Lo   int
	M, K int
	Ops  []sortnet.CAS
}

// Plan is a branchless sorter for a fixed array length: kernel blocks
// followed by merge layers. The zero-length and length-1 plans are
// valid no-ops.
type Plan struct {
	N      int
	Blocks []Block
	Merges []Merge
	// Objective selects which frozen kernel set the blocks execute and
	// emit: ObjectiveFastest (the model-best picks, Compose's choice)
	// or ObjectiveShortest (the first picks, kernels.FirstPick). It
	// changes the kernel bodies, never the block cover or the merges.
	Objective enum.Objective
}

// Compose plans a branchless sorter for fixed length n using the
// fastest (model-best) kernels — the deployment default: a generated
// sorter exists to be executed, so it inlines the uarch-ranked picks.
// ComposeObjective selects the kernel set explicitly.
func Compose(n int) (*Plan, error) {
	return ComposeObjective(n, enum.ObjectiveFastest)
}

// ComposeObjective plans a branchless sorter for fixed length n with
// the kernel set for obj: fastest (model-best picks) or shortest
// (first picks). Balanced is rejected — sortgen inlines frozen,
// duplicate-verified kernels, and only those two sets are frozen.
//
// The block cutover policy (DESIGN.md §12): cover the array with
// synthesized 5-kernels while more than 7 elements remain, then split
// the tail so no block is smaller than 2 unless n itself is (6 → 3+3,
// 7 → 4+3, 2..5 → one kernel). Runs are then merged pairwise,
// balanced-tree style, with Batcher odd-even merges; every merge layer
// is certified against all sorted 0-1 run pairs before the plan is
// returned.
func ComposeObjective(n int, obj enum.Objective) (*Plan, error) {
	switch obj {
	case enum.ObjectiveShortest, enum.ObjectiveFastest:
	default:
		return nil, fmt.Errorf("sortgen: no frozen kernel set for objective %q (want shortest or fastest)", obj)
	}
	blocks, err := BlocksFor(n)
	if err != nil {
		return nil, err
	}
	p := &Plan{N: n, Blocks: blocks, Objective: obj}

	// Merge adjacent runs pairwise until one run spans the array.
	runs := make([]Block, len(p.Blocks))
	copy(runs, p.Blocks)
	for len(runs) > 1 {
		var next []Block
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				next = append(next, runs[i])
				continue
			}
			a, b := runs[i], runs[i+1]
			m, err := mergeRuns(a.Lo, a.N, b.N)
			if err != nil {
				return nil, err
			}
			p.Merges = append(p.Merges, m)
			next = append(next, Block{Lo: a.Lo, N: a.N + b.N})
		}
		runs = next
	}
	return p, nil
}

// BlocksFor returns the deterministic kernel-block cover for length n
// under the cutover policy, without building (or certifying) the merge
// layers — cheap enough for cache-hit metadata on the serving path.
func BlocksFor(n int) ([]Block, error) {
	if n < 0 {
		return nil, fmt.Errorf("sortgen: invalid length n=%d", n)
	}
	var blocks []Block
	for lo := 0; lo < n; {
		rem := n - lo
		var size int
		switch {
		case rem > 7:
			size = 5
		case rem == 7:
			size = 4
		case rem == 6:
			size = 3
		default: // 1..5
			size = rem
		}
		blocks = append(blocks, Block{Lo: lo, N: size})
		lo += size
	}
	return blocks, nil
}

// mergeRuns builds and certifies the odd-even merge of the adjacent
// sorted runs [lo, lo+m) and [lo+m, lo+m+k).
func mergeRuns(lo, m, k int) (Merge, error) {
	chA := make([]int, m)
	for i := range chA {
		chA[i] = i
	}
	chB := make([]int, k)
	for i := range chB {
		chB[i] = m + i
	}
	rel := sortnet.OddEvenMergeRuns(chA, chB)
	if !sortnet.MergesRuns01(rel, m, k) {
		// Unreachable for a correct generator; certified anyway so a
		// regression in the construction can never ship a wrong sorter.
		return Merge{}, fmt.Errorf("sortgen: generated merge(%d,%d) failed 0-1 certification", m, k)
	}
	ops := make([]sortnet.CAS, len(rel))
	for i, c := range rel {
		ops[i] = sortnet.CAS{I: lo + c.I, J: lo + c.J}
	}
	return Merge{Lo: lo, M: m, K: k, Ops: ops}, nil
}

// Comparators returns the total number of merge-layer compare-and-swaps.
func (p *Plan) Comparators() int {
	total := 0
	for _, m := range p.Merges {
		total += len(m.Ops)
	}
	return total
}

// KernelInstructions returns the total abstract-instruction count of the
// plan's kernel blocks (a length-2 block counts as one comparator's
// worth of work, reported as 0 abstract instructions). Both frozen
// kernel sets are optimal-length, so the count is objective-independent.
func (p *Plan) KernelInstructions() int {
	total := 0
	for _, b := range p.Blocks {
		if prog := p.kernel(b.N); prog != nil {
			total += len(prog.prog)
		}
	}
	return total
}

// MergeOps returns the flattened merge schedule in execution order.
func (p *Plan) MergeOps() []sortnet.CAS {
	ops := make([]sortnet.CAS, 0, p.Comparators())
	for _, m := range p.Merges {
		ops = append(ops, m.Ops...)
	}
	return ops
}

// Sorter returns an in-process sorter executing the plan directly —
// kernel blocks through their compiled Go forms, merge layers as
// compare-and-swap loops — so the service can hand out a working
// sorter without emitting and compiling source. The returned function
// sorts a[:p.N] in place and panics if len(a) < p.N.
func (p *Plan) Sorter() func(a []int) {
	type blockFn struct {
		lo, n int
		fn    func([]int)
	}
	var blocks []blockFn
	for _, b := range p.Blocks {
		if b.N < 2 {
			continue
		}
		fn := sort2
		if b.N > 2 {
			fn = p.kernel(b.N).fn
		}
		blocks = append(blocks, blockFn{lo: b.Lo, n: b.N, fn: fn})
	}
	ops := p.MergeOps()
	n := p.N
	return func(a []int) {
		a = a[:n]
		for _, b := range blocks {
			b.fn(a[b.lo : b.lo+b.n])
		}
		for _, c := range ops {
			if a[c.I] > a[c.J] {
				a[c.I], a[c.J] = a[c.J], a[c.I]
			}
		}
	}
}

// kernelEntry is one synthesized kernel in both forms: the native Go
// function for execution and the abstract program for emission.
type kernelEntry struct {
	fn   func([]int)
	prog isa.Program
	set  *isa.Set
}

// synthKernels caches the registry lookups: the model-best synthesized
// cmov kernels for n = 3, 4, 5 (the "enum" contenders of §5.3) — the
// fastest-objective set.
var synthKernels = func() map[int]kernelEntry {
	ks := make(map[int]kernelEntry, 3)
	for n := 3; n <= MaxKernelN; n++ {
		k, ok := kernels.Lookup("enum", n)
		if !ok {
			panic(fmt.Sprintf("sortgen: no synthesized kernel for n=%d in the registry", n))
		}
		ks[n] = kernelEntry{fn: k.Go, prog: k.Prog, set: k.Set}
	}
	return ks
}()

// firstKernels caches the shortest-objective set: the frozen first
// picks of the sequential search (kernels.FirstPick).
var firstKernels = func() map[int]kernelEntry {
	ks := make(map[int]kernelEntry, 3)
	for n := 3; n <= MaxKernelN; n++ {
		k, ok := kernels.FirstPick(n)
		if !ok {
			panic(fmt.Sprintf("sortgen: no first-pick kernel for n=%d in the registry", n))
		}
		ks[n] = kernelEntry{fn: k.Go, prog: k.Prog, set: k.Set}
	}
	return ks
}()

// kernel returns the abstract-and-native kernel behind a block of
// length n under the plan's objective, or nil when the block is a bare
// compare-and-swap (n ≤ 2).
func (p *Plan) kernel(n int) *kernelEntry {
	ks := synthKernels
	if p.Objective == enum.ObjectiveShortest {
		ks = firstKernels
	}
	if e, ok := ks[n]; ok {
		return &e
	}
	return nil
}

func sort2(a []int) {
	if a[1] < a[0] {
		a[0], a[1] = a[1], a[0]
	}
}
