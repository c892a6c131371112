package isa

import (
	"fmt"
	"math"
)

// Kind distinguishes the two instruction sets.
type Kind uint8

// Supported instruction-set kinds.
const (
	KindCmov   Kind = iota // mov, cmp, cmovl, cmovg (flags)
	KindMinMax             // mov, min, max (no flags)
)

// String returns a human-readable name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCmov:
		return "cmov"
	case KindMinMax:
		return "minmax"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Set describes a concrete synthesis machine: an instruction-set kind
// instantiated for n sorted registers and m scratch registers, together
// with the enumerated list of legal instructions.
//
// The enumeration applies the paper's symmetry restrictions (§3.2, §4):
//   - no instruction operates a register on itself (mov/cmov/min/max with
//     dst == src and cmp with equal operands are excluded), and
//   - cmp a b requires a < b by register index, exploiting the symmetry
//     between the lt and gt flags.
type Set struct {
	Kind Kind
	N    int // number of sorted registers (array length)
	M    int // number of scratch registers

	instrs []Instr
	index  map[Instr]int
}

// New returns the instruction set of the given kind for n sorted and m
// scratch registers. Sets with more than 7 total registers can be
// enumerated and analyzed, but not executed by the packed state machine
// (see state.NewMachine).
func New(kind Kind, n, m int) *Set {
	if n < 1 || m < 0 || n+m > 12 {
		panic(fmt.Sprintf("isa: unsupported configuration n=%d m=%d", n, m))
	}
	s := &Set{Kind: kind, N: n, M: m}
	r := n + m
	add := func(op Op, d, src int) {
		s.instrs = append(s.instrs, Instr{Op: op, Dst: uint8(d), Src: uint8(src)})
	}
	switch kind {
	case KindCmov:
		for _, op := range []Op{Mov, Cmp, Cmovl, Cmovg} {
			for d := 0; d < r; d++ {
				for src := 0; src < r; src++ {
					if d == src {
						continue
					}
					if op == Cmp && d > src {
						continue // lt/gt flag symmetry: only a < b
					}
					add(op, d, src)
				}
			}
		}
	case KindMinMax:
		for _, op := range []Op{Mov, Min, Max} {
			for d := 0; d < r; d++ {
				for src := 0; src < r; src++ {
					if d == src {
						continue
					}
					add(op, d, src)
				}
			}
		}
	default:
		panic(fmt.Sprintf("isa: unknown kind %d", kind))
	}
	s.index = make(map[Instr]int, len(s.instrs))
	for i, in := range s.instrs {
		s.index[in] = i
	}
	return s
}

// NewCmov returns the cmov instruction set for n values and m scratch
// registers.
func NewCmov(n, m int) *Set { return New(KindCmov, n, m) }

// NewMinMax returns the min/max instruction set for n values and m scratch
// registers.
func NewMinMax(n, m int) *Set { return New(KindMinMax, n, m) }

// Regs returns the total number of registers n+m.
func (s *Set) Regs() int { return s.N + s.M }

// Instrs returns the enumerated legal instructions. The slice must not be
// modified.
func (s *Set) Instrs() []Instr { return s.instrs }

// NumInstrs returns the number of legal instructions per program position.
func (s *Set) NumInstrs() int { return len(s.instrs) }

// InstrID returns the dense index of in within Instrs, or -1 if in is not
// a legal instruction of this set.
func (s *Set) InstrID(in Instr) int {
	if id, ok := s.index[in]; ok {
		return id
	}
	return -1
}

// HasFlags reports whether the instruction set uses lt/gt flags.
func (s *Set) HasFlags() bool { return s.Kind == KindCmov }

// NumCommands returns the number of command mnemonics (4 for cmov,
// 3 for min/max), as used in the paper's raw program-space formula.
func (s *Set) NumCommands() int {
	if s.Kind == KindCmov {
		return 4
	}
	return 3
}

// RawProgramSpaceLog10 returns log10 of the raw program space
// (cmds · (n+m)²)^ℓ of the paper's §5.1 table, which counts all operand
// combinations including the symmetric and degenerate ones.
func (s *Set) RawProgramSpaceLog10(length int) float64 {
	r := float64(s.Regs())
	perStep := float64(s.NumCommands()) * r * r
	return float64(length) * math.Log10(perStep)
}

// String returns a short description such as "cmov(n=3,m=1)".
func (s *Set) String() string {
	return fmt.Sprintf("%s(n=%d,m=%d)", s.Kind, s.N, s.M)
}

// ProofExhaustion names the in-repo proof of a knownOptimal entry:
// sortsynth.ProveNoKernel at L*−1 finds no kernel.
const ProofExhaustion = "exhaustion at L*-1"

// knownOptimal holds the established minimal kernel lengths for n = 2..5
// with one scratch register, per kind, and their proofs ("" if none).
var knownOptimal = [...][4]struct {
	length int
	proof  string
}{
	KindCmov:   {{4, ProofExhaustion}, {11, ProofExhaustion}, {20, "paper §5.3: no kernel of length 19"}, {33, ""}},
	KindMinMax: {{3, ProofExhaustion}, {8, ProofExhaustion}, {15, ProofExhaustion}, {23, ""}},
}

// KnownOptimalLength returns the established minimal kernel length for
// the set, when one is known: cmov 4/11/20/33 and min/max 3/8/15/23 for
// n = 2..5 with one scratch register (paper §2.3, §5.4). The n ≤ 4
// entries are proved (ProvedOptimalLength); the n=5 values are the best
// known. The paper reports 26 for min/max n=5; 23 is the shortest kernel
// this repository has found (ConfigBest at budget 23, verified on the
// permutation and weak-order suites).
func KnownOptimalLength(set *Set) (int, bool) {
	if set.M != 1 || set.N < 2 || set.N > 5 || int(set.Kind) >= len(knownOptimal) {
		return 0, false
	}
	return knownOptimal[set.Kind][set.N-2].length, true
}

// ProvedOptimalLength returns the set's known optimal length and the
// name of its proof when the length is proved minimal: every n ≤ 4 entry,
// cmov n=4 by the paper's §5.3 alone (cmd/lowerbound does not finish it).
func ProvedOptimalLength(set *Set) (length int, proof string, ok bool) {
	if l, known := KnownOptimalLength(set); known && knownOptimal[set.Kind][set.N-2].proof != "" {
		return l, knownOptimal[set.Kind][set.N-2].proof, true
	}
	return 0, "", false
}
