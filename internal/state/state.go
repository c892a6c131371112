// Package state implements the vectorized execution engine of the
// enumerative synthesizer.
//
// A register assignment (the values of all n+m registers plus the lt/gt
// flags, paper §2.2) is packed into a single uint32: two flag bits, then
// one nibble per register. The sorted registers r1..rn occupy the highest
// nibbles so that the "permutation projection" of an assignment — the
// tuple (r1, …, rn) that the paper's permutation-count heuristic counts —
// is simply the assignment shifted right by a constant.
//
// A search state is the canonical form of the multiset of assignments
// obtained by running a partial program on every permutation of 1..n:
// sorted ascending with duplicates merged (paper §3.6). Two partial
// programs with equal canonical states behave identically under any
// completion, so the search deduplicates on them.
//
// The package executes (ApplyRaw), checks (AllSorted, AllViable, the §3.5
// cut's projection counts), canonicalizes, hashes and stores (Arena)
// states. The distance-based checks — the §3.3 budget and the §3.2 action
// guide — are decided per state, before any apply, by internal/tables.
package state

import (
	"fmt"
	"slices"

	"sortsynth/internal/isa"
	"sortsynth/internal/perm"
)

// Asg is a packed register assignment: bit 0 = lt flag, bit 1 = gt flag,
// then 4 bits per register (scratch registers first, sorted registers in
// the highest nibbles).
type Asg uint32

const (
	flagLT   Asg = 1
	flagGT   Asg = 2
	flagBits     = 2
)

// Suite selects the correctness test suite the machine tracks.
type Suite uint8

// Test suites.
const (
	// SuitePermutations is the paper's §2.3 suite: all n! permutations of
	// distinct values. Complete for inputs without ties.
	SuitePermutations Suite = iota
	// SuiteWeakOrders tracks one representative of every weak ordering
	// (inputs with ties included). Kernels correct on this suite are
	// correct for arbitrary integers, closing the §2.3 gap where a kernel
	// sorts all permutations yet mis-sorts duplicates (cmp leaves both
	// flags clear on equal values — a case permutations never exercise).
	SuiteWeakOrders
)

// String returns the suite name.
func (s Suite) String() string {
	if s == SuiteWeakOrders {
		return "weakorders"
	}
	return "permutations"
}

// Machine instantiates the packed representation for one instruction set.
//
// With SuiteWeakOrders, each assignment additionally carries a goal tag
// in the bits above the registers: inputs with different value multisets
// must reach different sorted outputs, and the tag selects the goal. The
// tag is inert under execution (instructions only touch register nibbles
// and flags), so all search machinery works unchanged.
type Machine struct {
	Set   *isa.Set
	Suite Suite

	shift     [8]uint // bit offset of each register's nibble, by register index
	permShift uint    // shift extracting the (r1..rn) projection
	tagShift  uint    // shift extracting the goal tag
	numTags   int
	goals     []Asg  // per tag: goal projection (tag bits included)
	needs     []uint // per tag: bitmask of values the goal requires
	initial   []Asg  // canonical initial state

	// projBits is the width of the projection-and-tag field (PackedBits
	// minus the flag/scratch low bits): the projection counts pick their
	// direct-indexed fast path when their keys fit projDirectBits.
	projBits int
}

// NewMachine builds the execution machine for the paper's permutation
// suite. The packed representation supports at most 7 registers (two
// flag bits plus one nibble per register must fit a uint32).
func NewMachine(set *isa.Set) *Machine { return NewMachineSuite(set, SuitePermutations) }

// NewMachineSuite builds the execution machine for the given test suite.
func NewMachineSuite(set *isa.Set, suite Suite) *Machine {
	if set.Regs() > 7 {
		panic(fmt.Sprintf("state: %v has %d registers, packed limit is 7", set, set.Regs()))
	}
	m := &Machine{Set: set, Suite: suite}
	n, sc := set.N, set.M
	// Scratch registers occupy the low nibbles, sorted registers above
	// them, the goal tag on top; within the sorted registers r1 is lowest.
	for i := 0; i < sc; i++ {
		m.shift[n+i] = flagBits + uint(4*i)
	}
	for i := 0; i < n; i++ {
		m.shift[i] = flagBits + uint(4*(sc+i))
	}
	m.permShift = flagBits + uint(4*sc)
	m.tagShift = flagBits + uint(4*(sc+n))

	switch suite {
	case SuitePermutations:
		m.numTags = 1
		var sorted Asg
		for i := 0; i < n; i++ {
			sorted |= Asg(i+1) << (4 * i)
		}
		m.goals = []Asg{sorted}
		m.needs = []uint{uint(1)<<(n+1) - 2}
		for _, p := range perm.All(n) {
			m.initial = append(m.initial, m.PackRegs(p))
		}
	case SuiteWeakOrders:
		tagOf := map[Asg]int{}
		for _, w := range perm.WeakOrders(n) {
			sortedW := append([]int(nil), w...)
			slices.Sort(sortedW)
			var goal Asg
			var need uint
			for i, v := range sortedW {
				goal |= Asg(v) << (4 * i)
				need |= 1 << v
			}
			tag, ok := tagOf[goal]
			if !ok {
				tag = len(m.goals)
				tagOf[goal] = tag
				m.goals = append(m.goals, goal|Asg(tag)<<(4*n))
				m.needs = append(m.needs, need)
			}
			a := m.PackRegs(w) | Asg(tag)<<m.tagShift
			m.initial = append(m.initial, a)
		}
		m.numTags = len(m.goals)
		if m.tagShift+uint(bitsFor(m.numTags)) > 32 {
			panic(fmt.Sprintf("state: weak-order tags for %v do not fit the packed word", set))
		}
	}
	Canonicalize((*State)(&m.initial))
	m.projBits = m.PackedBits() - int(m.permShift)
	return m
}

func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// NumTags returns the number of goal tags (1 for the permutation suite).
func (m *Machine) NumTags() int { return m.numTags }

// PackedBits returns the number of low bits of an Asg this machine can
// populate: flags, register nibbles, and the goal tag. Callers sizing
// direct-indexed tables over assignments use this instead of the full 32
// bits.
func (m *Machine) PackedBits() int {
	return int(m.tagShift) + bitsFor(m.numTags)
}

// Tag extracts the goal tag of an assignment.
func (m *Machine) Tag(a Asg) int { return int(a >> m.tagShift) }

// WithTag stamps a goal tag onto an assignment (for table enumeration).
func (m *Machine) WithTag(a Asg, tag int) Asg {
	return a&(1<<m.tagShift-1) | Asg(tag)<<m.tagShift
}

// PackRegs packs an assignment with r1..rn = vals, scratch registers 0 and
// flags clear.
func (m *Machine) PackRegs(vals []int) Asg {
	if len(vals) != m.Set.N {
		panic(fmt.Sprintf("state: PackRegs got %d values, want %d", len(vals), m.Set.N))
	}
	var a Asg
	for i, v := range vals {
		if v < 0 || v > 15 {
			panic(fmt.Sprintf("state: value %d out of nibble range", v))
		}
		a |= Asg(v) << m.shift[i]
	}
	return a
}

// Pack packs a full assignment: regs holds all n+m register values in
// register-index order.
func (m *Machine) Pack(regs []int, lt, gt bool) Asg {
	if len(regs) != m.Set.Regs() {
		panic(fmt.Sprintf("state: Pack got %d values, want %d", len(regs), m.Set.Regs()))
	}
	var a Asg
	for i, v := range regs {
		a |= Asg(v) << m.shift[i]
	}
	if lt {
		a |= flagLT
	}
	if gt {
		a |= flagGT
	}
	return a
}

// Reg extracts the value of register index r from a.
func (m *Machine) Reg(a Asg, r int) int { return int(a>>m.shift[r]) & 0xF }

// Flags extracts the lt/gt flags from a.
func (m *Machine) Flags(a Asg) (lt, gt bool) { return a&flagLT != 0, a&flagGT != 0 }

// Unpack returns all register values of a in register-index order.
func (m *Machine) Unpack(a Asg) []int {
	regs := make([]int, m.Set.Regs())
	for i := range regs {
		regs[i] = m.Reg(a, i)
	}
	return regs
}

// Step executes one instruction on a packed assignment.
func (m *Machine) Step(a Asg, in isa.Instr) Asg {
	switch in.Op {
	case isa.Mov:
		v := (a >> m.shift[in.Src]) & 0xF
		sh := m.shift[in.Dst]
		return a&^(0xF<<sh) | v<<sh
	case isa.Cmp:
		va := (a >> m.shift[in.Dst]) & 0xF
		vb := (a >> m.shift[in.Src]) & 0xF
		a &^= flagLT | flagGT
		if va < vb {
			a |= flagLT
		} else if va > vb {
			a |= flagGT
		}
		return a
	case isa.Cmovl:
		if a&flagLT == 0 {
			return a
		}
		v := (a >> m.shift[in.Src]) & 0xF
		sh := m.shift[in.Dst]
		return a&^(0xF<<sh) | v<<sh
	case isa.Cmovg:
		if a&flagGT == 0 {
			return a
		}
		v := (a >> m.shift[in.Src]) & 0xF
		sh := m.shift[in.Dst]
		return a&^(0xF<<sh) | v<<sh
	case isa.Min:
		va := (a >> m.shift[in.Dst]) & 0xF
		vb := (a >> m.shift[in.Src]) & 0xF
		if vb < va {
			sh := m.shift[in.Dst]
			return a&^(0xF<<sh) | vb<<sh
		}
		return a
	case isa.Max:
		va := (a >> m.shift[in.Dst]) & 0xF
		vb := (a >> m.shift[in.Src]) & 0xF
		if vb > va {
			sh := m.shift[in.Dst]
			return a&^(0xF<<sh) | vb<<sh
		}
		return a
	}
	panic(fmt.Sprintf("state: unknown op %v", in.Op))
}

// Unstep calls yield once for every predecessor of b under in: every a
// with Step(a, in) == b whose register values are at most n and whose
// lt and gt flags are not both set (the domain of internal/tables).
// b must lie in that domain. It is the exact inverse of Step there:
//
//   - mov: b[dst] == b[src], and a[dst] is any value;
//   - cmp: b's flags are those of b[dst] vs b[src], and a has any of
//     the three flag codes;
//   - cmovl, cmovg: b itself when the flag is clear, otherwise as mov;
//   - min, max: a[dst] is any value that clamps to b[dst].
//
// in must have dst ≠ src, as every instruction of an isa.Set does.
func (m *Machine) Unstep(b Asg, in isa.Instr, yield func(Asg)) {
	sh := m.shift[in.Dst]
	vd, vs := (b>>sh)&0xF, (b>>m.shift[in.Src])&0xF
	// dsts yields b with a[dst] = v for every v in lo..hi.
	dsts := func(lo, hi Asg) {
		base := b &^ (0xF << sh)
		for v := lo; v <= hi; v++ {
			yield(base | v<<sh)
		}
	}
	switch in.Op {
	case isa.Cmp:
		var want Asg
		if vd < vs {
			want = flagLT
		} else if vd > vs {
			want = flagGT
		}
		if b&(flagLT|flagGT) == want {
			base := b &^ (flagLT | flagGT)
			yield(base)
			yield(base | flagLT)
			yield(base | flagGT)
		}
		return
	case isa.Cmovl:
		if b&flagLT == 0 {
			yield(b)
			return
		}
	case isa.Cmovg:
		if b&flagGT == 0 {
			yield(b)
			return
		}
	}
	n := Asg(m.Set.N)
	switch {
	case in.Op == isa.Min:
		if vd < vs {
			yield(b)
		} else if vd == vs {
			dsts(vs, n)
		}
	case in.Op == isa.Max:
		if vd > vs {
			yield(b)
		} else if vd == vs {
			dsts(0, vs)
		}
	case vd == vs: // mov, or a cmov whose flag is set
		dsts(0, n)
	}
}

// RunAsg executes a whole program on a packed assignment.
func (m *Machine) RunAsg(a Asg, p isa.Program) Asg {
	for _, in := range p {
		a = m.Step(a, in)
	}
	return a
}

// Sorted reports whether the sorted registers of a hold the assignment's
// goal (ascending 1..n for the permutation suite; the sorted input
// multiset for weak orders).
func (m *Machine) Sorted(a Asg) bool { return a>>m.permShift == m.goals[a>>m.tagShift] }

// Proj returns the permutation projection of a: the packed (r1..rn) tuple
// plus the goal tag, without scratch registers and flags.
func (m *Machine) Proj(a Asg) Asg { return a >> m.permShift }

// Viable reports whether every value the goal requires still occurs in
// some register of a. If not, the assignment can never be completed to a
// sorted one (paper §3.3: the program "erased" a number). Values can be
// duplicated freely by moves, so presence (not multiplicity) is the
// criterion even for duplicate goals.
func (m *Machine) Viable(a Asg) bool {
	var seen uint
	for i := 0; i < m.Set.Regs(); i++ {
		seen |= 1 << ((a >> m.shift[i]) & 0xF)
	}
	want := m.needs[a>>m.tagShift]
	return seen&want == want
}

// State is a canonical set of packed assignments: sorted ascending, no
// duplicates.
type State []Asg

// Initial returns the canonical initial state: one assignment per
// permutation of 1..n, scratch registers zero, flags clear. The returned
// slice is shared and must not be modified.
func (m *Machine) Initial() State { return m.initial }

// Apply executes in on every assignment of s and returns the canonical
// successor state. The result is appended to dst[:0] (pass nil to
// allocate); dst must not alias s.
func (m *Machine) Apply(dst State, s State, in isa.Instr) State {
	dst = m.ApplyRaw(dst, s, in)
	Canonicalize(&dst)
	return dst
}

// ApplyRaw is Apply without the canonicalization pass: the result keeps
// s's element order and may contain duplicate assignments. Per-assignment
// predicates (AllSorted, MaxDist, AllViable) are order- and
// duplicate-insensitive, so the search runs them on the raw successor and
// canonicalizes only the candidates that survive pruning — the sort is a
// quarter of the search profile otherwise. PermCount and Hash/HashKey
// still require a canonical state. The op dispatch is hoisted out of the
// per-assignment loop: this is the innermost call of the enumerative
// search and runs millions of times per synthesis.
func (m *Machine) ApplyRaw(dst State, s State, in isa.Instr) State {
	if cap(dst) < len(s) {
		dst = make(State, len(s))
	} else {
		dst = dst[:len(s)]
	}
	shD, shS := m.shift[in.Dst], m.shift[in.Src]
	switch in.Op {
	case isa.Mov:
		for i, a := range s {
			v := (a >> shS) & 0xF
			dst[i] = a&^(0xF<<shD) | v<<shD
		}
	case isa.Cmp:
		for i, a := range s {
			va := (a >> shD) & 0xF
			vb := (a >> shS) & 0xF
			a &^= flagLT | flagGT
			if va < vb {
				a |= flagLT
			} else if va > vb {
				a |= flagGT
			}
			dst[i] = a
		}
	case isa.Cmovl:
		for i, a := range s {
			if a&flagLT != 0 {
				v := (a >> shS) & 0xF
				a = a&^(0xF<<shD) | v<<shD
			}
			dst[i] = a
		}
	case isa.Cmovg:
		for i, a := range s {
			if a&flagGT != 0 {
				v := (a >> shS) & 0xF
				a = a&^(0xF<<shD) | v<<shD
			}
			dst[i] = a
		}
	case isa.Min:
		for i, a := range s {
			if vb := (a >> shS) & 0xF; vb < (a>>shD)&0xF {
				a = a&^(0xF<<shD) | vb<<shD
			}
			dst[i] = a
		}
	case isa.Max:
		for i, a := range s {
			if vb := (a >> shS) & 0xF; vb > (a>>shD)&0xF {
				a = a&^(0xF<<shD) | vb<<shD
			}
			dst[i] = a
		}
	default:
		for i, a := range s {
			dst[i] = m.Step(a, in)
		}
	}
	return dst
}

// Canonicalize sorts *s ascending and removes duplicates in place.
func Canonicalize(s *State) {
	v := *s
	if len(v) <= 1 {
		return
	}
	if len(v) <= 24 {
		insertionSort(v)
	} else {
		slices.Sort(v)
	}
	// Dedup in place.
	w := 1
	for i := 1; i < len(v); i++ {
		if v[i] != v[i-1] {
			v[w] = v[i]
			w++
		}
	}
	*s = v[:w]
}

func insertionSort(v []Asg) {
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] > x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
}

// AllSorted reports whether every assignment of s is sorted, i.e. the
// partial program is a correct sorting kernel (paper §3.4).
func (m *Machine) AllSorted(s State) bool {
	for _, a := range s {
		if !m.Sorted(a) {
			return false
		}
	}
	return true
}

// PermCount returns the number of distinct permutation projections in s —
// the paper's primary search heuristic and cut score (§3.1, §3.5).
// s must be canonical.
func (m *Machine) PermCount(s State) int {
	if len(s) == 0 {
		return 0
	}
	count := 1
	prev := s[0] >> m.permShift
	for _, a := range s[1:] {
		if p := a >> m.permShift; p != prev {
			count++
			prev = p
		}
	}
	return count
}

// AllViable reports whether every assignment of s is viable.
func (m *Machine) AllViable(s State) bool {
	for _, a := range s {
		if !m.Viable(a) {
			return false
		}
	}
	return true
}

// Constants for the two independent state hashes.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	altOffset64 = 0x9e3779b97f4a7c15 // splitmix64 golden-gamma offset
	finalMix64  = 0xd6e8feb86659fd93 // xorshift-multiply avalanche constant
)

// Hash returns a 64-bit hash of the canonical state: word-at-a-time
// FNV-1a over the packed assignments with a final avalanche. (The
// per-byte FNV variant costs four multiplies per assignment and was a
// measurable slice of the search profile.)
func Hash(s State) uint64 {
	h := uint64(fnvOffset64)
	for _, a := range s {
		h = (h ^ uint64(a)) * fnvPrime64
	}
	h ^= h >> 32
	h *= finalMix64
	h ^= h >> 32
	return h
}

// Key128 is a 128-bit dedup key formed from two independent hashes, used
// by the exhaustive lower-bound proofs where 64-bit collisions would be a
// soundness concern.
type Key128 struct{ Hi, Lo uint64 }

// HashKey returns the 128-bit dedup key of the canonical state: Lo is
// Hash(s), Hi an independent splitmix-style mix, both computed in a
// single fused pass.
func HashKey(s State) Key128 {
	lo := uint64(fnvOffset64)
	hi := uint64(altOffset64)
	for _, a := range s {
		lo = (lo ^ uint64(a)) * fnvPrime64
		hi ^= uint64(a)
		hi *= 0xbf58476d1ce4e5b9
		hi ^= hi >> 29
	}
	lo ^= lo >> 32
	lo *= finalMix64
	lo ^= lo >> 32
	hi ^= hi >> 32
	return Key128{Hi: hi, Lo: lo}
}

// Clone returns a copy of s.
func (s State) Clone() State {
	t := make(State, len(s))
	copy(t, s)
	return t
}

// RunInts executes program p on arbitrary integer inputs vals (length n),
// returning the final values of r1..rn. Scratch registers start at 0 and
// flags clear. This is the reference interpreter used for verification on
// values outside 1..n and for kernel benchmarking.
func RunInts(set *isa.Set, p isa.Program, vals []int) []int {
	return RunIntsIn(make([]int, set.Regs()), set, p, vals)
}

// RunIntsIn is RunInts on the caller's register file regs (length
// set.Regs()), which it overwrites; the result aliases regs. Checking a
// program on many inputs with one regs allocates nothing.
func RunIntsIn(regs []int, set *isa.Set, p isa.Program, vals []int) []int {
	if len(vals) != set.N {
		panic(fmt.Sprintf("state: RunInts got %d values, want %d", len(vals), set.N))
	}
	copy(regs, vals)
	clear(regs[set.N:])
	var lt, gt bool
	for _, in := range p {
		switch in.Op {
		case isa.Mov:
			regs[in.Dst] = regs[in.Src]
		case isa.Cmp:
			lt = regs[in.Dst] < regs[in.Src]
			gt = regs[in.Dst] > regs[in.Src]
		case isa.Cmovl:
			if lt {
				regs[in.Dst] = regs[in.Src]
			}
		case isa.Cmovg:
			if gt {
				regs[in.Dst] = regs[in.Src]
			}
		case isa.Min:
			if regs[in.Src] < regs[in.Dst] {
				regs[in.Dst] = regs[in.Src]
			}
		case isa.Max:
			if regs[in.Src] > regs[in.Dst] {
				regs[in.Dst] = regs[in.Src]
			}
		}
	}
	return regs[:set.N]
}
