// Package tables precomputes, for every possible single register
// assignment, the length of the shortest program sorting that assignment
// alone (paper §3.1).
//
// The single-assignment space is tiny (at most 3·(n+1)^(n+m) entries), so
// the distances are tabulated once per machine by one backward
// breadth-first search from the sorted assignments, walking the inverse
// of the instruction step function (state.Machine.Unstep). The table
// yields three search ingredients:
//
//   - an admissible A* heuristic: max over the assignments of a state of
//     the assignment's distance is a lower bound on the remaining program
//     length (paper §3.1, third heuristic);
//   - the budget masks, which decide the per-assignment viability budget
//     check (paper §3.3): for every viable assignment, the instructions
//     whose successor still fits each slack up to the machine's largest
//     one-step distance rise, so the search drops a state's over-budget
//     candidates exactly, before applying any of them (DESIGN.md §10);
//   - the first-optimal-instruction guide that drives the
//     non-optimality-preserving action guide (paper §3.2), read off the
//     slack-0 budget masks.
//
// Candidates builds both masks of a state in one walk over its
// assignments.
//
// A second table, over pairs of viable assignments, is built lazily by
// Pairs on first use — For never builds it — and only while V² ≤ 2^24
// for the machine's V viable assignments. A program sorting a state
// sorts every pair of its assignments, so the largest pair distance is
// a stronger admissible bound than MaxDist (8 against 4 at the cmov n=3
// root); the exact searches of internal/enum prune with it.
//
// Both tables share one domain: the assignments with a flag code cmp
// can leave (see Dist).
package tables

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"

	"sortsynth/internal/isa"
	"sortsynth/internal/state"
)

// Infinite marks assignments that can never be sorted (a value of 1..n was
// erased).
const Infinite = 255

// MaskWords is the number of uint64 words in an instruction mask, enough
// for every machine the packed representation supports.
const MaskWords = 3

// Mask is a bitset over the instruction IDs of a machine's instruction
// set.
type Mask [MaskWords]uint64

// Has reports whether instruction id is in the mask.
func (m *Mask) Has(id int) bool { return m[id>>6]&(1<<(id&63)) != 0 }

// Set adds instruction id to the mask.
func (m *Mask) Set(id int) { m[id>>6] |= 1 << (id & 63) }

// Or folds other into m.
func (m *Mask) Or(other Mask) {
	for i := range m {
		m[i] |= other[i]
	}
}

// And returns m ∩ other.
func (m Mask) And(other Mask) Mask {
	for i := range m {
		m[i] &= other[i]
	}
	return m
}

// AndNot returns m \ other.
func (m Mask) AndNot(other Mask) Mask {
	for i := range m {
		m[i] &^= other[i]
	}
	return m
}

// Below returns the members of m with IDs less than id.
func (m Mask) Below(id int) Mask {
	for i := range m {
		switch lo := i << 6; {
		case id <= lo:
			m[i] = 0
		case id < lo+64:
			m[i] &= 1<<(id-lo) - 1
		}
	}
	return m
}

// First returns the lowest member of m, or -1 if m is empty.
func (m Mask) First() int {
	for i, w := range m {
		if w != 0 {
			return i<<6 | bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Count returns the number of members of m.
func (m Mask) Count() int {
	c := 0
	for _, w := range m {
		c += bits.OnesCount64(w)
	}
	return c
}

// MaskOf returns the mask holding the first n instruction IDs — a whole
// instruction set of n instructions.
func MaskOf(n int) Mask {
	var m Mask
	for id := 0; id < n; id++ {
		m.Set(id)
	}
	return m
}

// Table holds the precomputed per-assignment data for one machine.
type Table struct {
	m    *state.Machine
	npow [9]uint32 // (n+1)^i
	base uint32    // (n+1)^regs
	dist []uint8

	// index(a) is linear over the bits of a (each packed field contributes
	// weight(bit)·bitvalue), so it splits into per-byte lookups: b0 and b1
	// cover bits 0..15 and b2 the packed bits above them. The whole
	// decomposition (~2.5 KB) plus the distance table (12.5 KB at n=4)
	// stays L1-resident; the per-register decomposition loop is far too
	// hot for the search's per-parent Candidates and per-child MaxDist.
	b0, b1 [256]uint32
	b2     []uint32

	// Budget masks. Every record is levels consecutive masks in masks,
	// and rec maps a table index to the offset of its record. Mask k of
	// the record of an assignment with distance d holds the instructions
	// whose successor has distance ≤ d−1+k; the last level, k = levels−1,
	// holds every instruction with a finite-distance successor (see build
	// for why levels suffices). Records are built for the viable
	// assignments only and interned — assignments with equal masks share
	// one — and the record at offset 0 is the all-empty record of every
	// assignment without a finite distance. A dense mask array over the
	// whole assignment space would cost 24 bytes per entry per level,
	// most of them dead assignments; the index costs 4.
	rec     []uint32
	masks   []Mask
	levels  int
	cmpMask Mask

	// The pair-distance table, built on first use by Pairs.
	pairOnce sync.Once
	pairs    *Pairs
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*Table{}
)

// For returns the (cached) table for the machine's instruction set and
// test suite.
func For(m *state.Machine) *Table {
	key := m.Set.String() + "/" + m.Suite.String()
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if t, ok := cache[key]; ok {
		return t
	}
	t := build(m)
	cache[key] = t
	return t
}

// index maps a packed assignment to its compact table index via the
// bit-decomposition lookup tables.
func (t *Table) index(a state.Asg) uint32 {
	return t.b0[a&0xFF] + t.b1[a>>8&0xFF] + t.b2[a>>16]
}

// slowIndex is the reference index computation: decompose the packed
// assignment field by field. Used to seed the lookup tables (and by the
// tests as the oracle for index).
func (t *Table) slowIndex(a state.Asg) uint32 {
	regs := t.m.Set.Regs()
	idx := (uint32(t.m.Tag(a))*4 + uint32(a&3)) * t.base
	for i := 0; i < regs; i++ {
		idx += uint32(t.m.Reg(a, i)) * t.npow[i]
	}
	return idx
}

// buildLUT tabulates the per-byte index decomposition. slowIndex is
// linear over disjoint bit fields with slowIndex(0) = 0, so the weight
// of bit b is slowIndex(1<<b) and each byte table is a subset-sum table
// over its bits. Entries of b0 and b1 for bits beyond PackedBits stay
// zero and are never reached by a valid packed assignment; b2 keeps the
// full width of the high remainder (at most PackedBits-16 bits, 14 for
// the largest supported machine).
func (t *Table) buildLUT() {
	bits := t.m.PackedBits()
	bytTab := func(tab []uint32, shift, width int) {
		for x := 1; x < 1<<width; x++ {
			tab[x] = tab[x&(x-1)] + t.slowIndex(state.Asg(x&-x)<<shift)
		}
	}
	bytTab(t.b0[:], 0, min(bits, 8))
	bytTab(t.b1[:], 8, min(max(bits-8, 0), 8))
	t.b2 = make([]uint32, 1<<max(bits-16, 0))
	bytTab(t.b2, 16, max(bits-16, 0))
}

func build(m *state.Machine) *Table {
	t := newTable(m)
	asgs := assignments(m)
	t.bfs(asgs)
	t.buildMasks(asgs)
	return t
}

// newTable allocates the machine's table with its index lookups and an
// unfilled distance array.
func newTable(m *state.Machine) *Table {
	regs := m.Set.Regs()
	t := &Table{m: m}
	t.npow[0] = 1
	for i := 1; i <= regs; i++ {
		t.npow[i] = t.npow[i-1] * uint32(m.Set.N+1)
	}
	t.base = t.npow[regs]
	t.buildLUT()
	// Flag codes 0..2 used (3 allocated for indexing simplicity), one
	// block per goal tag.
	t.dist = make([]uint8, int(t.base)*4*m.NumTags())
	return t
}

// bfs fills the distances by one backward breadth-first search from
// the sorted assignments: the predecessors of a level-k assignment
// under every instruction (Machine.Unstep) that are viable and not yet
// reached get distance k+1. A predecessor is visited only when first
// reached, so the search needs only the table and a queue — no edge
// lists. Dead assignments (a goal value erased) stay Infinite; viable
// ones no program sorts stay Infinite-1, which Dist also reads as
// Infinite. Steps never create values, so a dead assignment has only
// dead successors and every shortest program runs through viable
// assignments alone.
func (t *Table) bfs(asgs []state.Asg) {
	m := t.m
	for i := range t.dist {
		t.dist[i] = Infinite
	}
	var queue []state.Asg
	for _, a := range asgs {
		switch {
		case m.Sorted(a):
			t.dist[t.index(a)] = 0
			queue = append(queue, a)
		case m.Viable(a):
			t.dist[t.index(a)] = Infinite - 1 // not reached yet
		}
	}
	instrs := m.Set.Instrs()
	var d uint8
	visit := func(a state.Asg) {
		if idx := t.index(a); t.dist[idx] == Infinite-1 {
			t.dist[idx] = d
			queue = append(queue, a)
		}
	}
	for head := 0; head < len(queue); head++ {
		b := queue[head]
		d = t.dist[t.index(b)] + 1
		for _, in := range instrs {
			m.Unstep(b, in, visit)
		}
	}
}

// buildMasks interns the budget-mask records of every viable
// assignment from the finished distances, and the cmp mask.
func (t *Table) buildMasks(asgs []state.Asg) {
	m := t.m
	instrs := m.Set.Instrs()
	// Budget masks. Every instruction moves an assignment at most one
	// step closer to sorted (d ≤ 1 + dist(step): the instruction
	// followed by a shortest program for its successor sorts the
	// assignment), so a successor's finite distance is d−1+k for some
	// k ≥ 0. The largest k over every (assignment, instruction) pair, J,
	// sets the record depth: levels k = 0..J, where level J already
	// holds every finite successor. A successor fits budget b = d−1+slack
	// exactly when k ≤ slack, so level min(slack, J) is exact at every
	// slack. Each record is first built to its own largest k, top, and
	// padded to J once J is known; level top already holds every finite
	// successor, so records of different tops never pad to the same
	// masks and interning by the unpadded masks stays exact.
	t.rec = make([]uint32, len(t.dist))
	recs := [][]Mask{nil} // record 0: the all-empty record
	interned := map[string]uint32{"": 0}
	var key []byte
	var r []Mask
	rise := 0
	for _, a := range asgs {
		idx := t.index(a)
		d := int(t.dist[idx])
		if d >= Infinite-1 {
			continue
		}
		// Level k first holds the instructions of rise exactly k, then
		// every level takes in the ones below it.
		r = r[:0]
		for id, in := range instrs {
			nd := int(t.dist[t.index(m.Step(a, in))])
			if nd >= Infinite-1 {
				continue
			}
			k := nd - (d - 1)
			for len(r) <= k {
				r = append(r, Mask{})
			}
			r[k].Set(id)
		}
		for k := 1; k < len(r); k++ {
			r[k].Or(r[k-1])
		}
		top := len(r) - 1
		key = appendRecord(key[:0], r)
		ri, ok := interned[string(key)]
		if !ok {
			ri = uint32(len(recs))
			interned[string(key)] = ri
			recs = append(recs, slices.Clone(r))
		}
		t.rec[idx] = ri
		rise = max(rise, top)
	}
	t.levels = rise + 1
	t.masks = make([]Mask, len(recs)*t.levels)
	for i, r := range recs[1:] {
		lv := t.masks[(i+1)*t.levels:][:t.levels]
		for k := range lv {
			lv[k] = r[min(k, len(r)-1)]
		}
	}
	for i := range t.rec {
		t.rec[i] *= uint32(t.levels)
	}

	// The paper's action guide restricts the search to instructions that
	// start an optimal completion of some individual assignment (§3.2):
	// exactly the slack-0 masks. For a single assignment, cmp never
	// shortens the completion (data movement alone is optimal), so a
	// guide built literally from the distances would exclude cmp and
	// make the multi-permutation search unsolvable; cmp instructions are
	// therefore always included in the guide mask of flag-carrying
	// machines.
	for id, in := range instrs {
		if in.Op == isa.Cmp {
			t.cmpMask.Set(id)
		}
	}
}

// assignments enumerates every packed assignment of m — every register
// valuation (by odometer), goal tag and flag code.
func assignments(m *state.Machine) []state.Asg {
	n, regs := m.Set.N, m.Set.Regs()
	size := len(flagCodes(m.Set)) * m.NumTags()
	for range regs {
		size *= n + 1
	}
	asgs := make([]state.Asg, 0, size)
	vals := make([]int, regs)
	for {
		a := m.Pack(vals, false, false)
		for tag := 0; tag < m.NumTags(); tag++ {
			at := m.WithTag(a, tag)
			for _, fl := range flagCodes(m.Set) {
				asgs = append(asgs, at|state.Asg(fl))
			}
		}
		i := 0
		for i < regs {
			vals[i]++
			if vals[i] <= n {
				break
			}
			vals[i] = 0
			i++
		}
		if i == regs {
			return asgs
		}
	}
}

func flagCodes(set *isa.Set) []uint8 {
	if set.HasFlags() {
		return []uint8{0, 1, 2}
	}
	return []uint8{0}
}

// Dist returns the length of the shortest program sorting assignment a
// alone, or Infinite if a can never be sorted.
//
// The table's domain is the machine's packed assignments whose flag
// code is one cmp can leave: 0..2 on cmov machines (lt and gt never both
// set) and 0 on min/max machines. Every instruction keeps an assignment
// in that domain, so it holds every assignment the search reaches.
// Outside it Dist, MaxDist and Candidates answer without a check: an
// assignment with lt and gt both set reads as dead, although one cmp
// makes it sortable (covering that code measured +50–75% cmov build
// time), and one with a value above n or a goal tag out of range
// reads another assignment's entry or indexes out of range. The pair
// lookup, Pairs.Dist, checks its arguments and panics instead.
func (t *Table) Dist(a state.Asg) int {
	d := t.dist[t.index(a)]
	if d >= Infinite-1 {
		return Infinite
	}
	return int(d)
}

// MaxDist returns the maximum assignment distance in s — an admissible
// lower bound on the number of instructions any completion still needs.
// It returns Infinite if some assignment is dead. s must lie in the
// table's domain (see Dist).
func (t *Table) MaxDist(s state.State) int {
	max := 0
	for _, a := range s {
		d := t.dist[t.index(a)]
		if d >= Infinite-1 {
			return Infinite
		}
		if int(d) > max {
			max = int(d)
		}
	}
	return max
}

// Candidates returns, in one walk over the assignments of s, the two
// instruction masks the search filters a state's candidates with.
//
// guide is the action guide (paper §3.2): the union of the assignments'
// first-optimal-instruction masks — their slack-0 budget masks — plus
// all cmp instructions (see build) when any assignment contributed one.
// An assignment with distance d > 0 always has a distance-d−1
// successor, so the cmp instructions join exactly when some assignment
// of s is viable and unsorted.
//
// fit is the budget check (paper §3.3): exactly the instructions whose
// successor of s has every assignment within budget further
// instructions of sorted. Each assignment contributes the level of its
// record picked by its slack budget−d+1, capped at the deepest level;
// a negative slack, or an assignment without a finite distance, admits
// no instruction. s must lie in the table's domain (see Dist) — in
// particular never lt and gt together, a flag code the table leaves
// dead although its cmp successors are not — and budget must be below
// the table's dead markers (the search's depth budget always is).
func (t *Table) Candidates(s state.State, budget int) (guide, fit Mask) {
	fit = Mask{^uint64(0), ^uint64(0), ^uint64(0)}
	deepest := t.levels - 1
	for _, a := range s {
		idx := t.index(a)
		r := t.masks[t.rec[idx]:]
		guide.Or(r[0])
		switch slack := budget + 1 - int(t.dist[idx]); {
		case slack < 0:
			fit = Mask{}
		case slack < deepest:
			fit = fit.And(r[slack])
		default:
			fit = fit.And(r[deepest])
		}
	}
	if guide != (Mask{}) {
		guide.Or(t.cmpMask)
	}
	return guide, fit
}

// appendRecord appends the byte image of record r, its interning key,
// to b.
func appendRecord(b []byte, r []Mask) []byte {
	for _, m := range r {
		for _, w := range m {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	return b
}
