// Package tables precomputes, for every possible single register
// assignment, the length of the shortest program sorting that assignment
// alone (paper §3.1).
//
// The single-assignment space is tiny (at most 3·(n+1)^(n+m) entries), so
// the distances are tabulated once per machine by fixpoint relaxation over
// the instruction step function. The table yields four search
// ingredients:
//
//   - an admissible A* heuristic: max over the assignments of a state of
//     the assignment's distance is a lower bound on the remaining program
//     length (paper §3.1, third heuristic);
//   - the per-assignment viability budget check: if any assignment cannot
//     be sorted within the remaining instruction budget, the partial
//     program cannot be completed (paper §3.3);
//   - the budget masks: for every viable assignment, the instructions
//     whose successor still fits a budget of slack 0, 1, 2 or more, so
//     the search can drop a state's over-budget candidates before
//     applying them (BudgetMask, DESIGN.md §10);
//   - the first-optimal-instruction guide that drives the
//     non-optimality-preserving action guide (paper §3.2), read off the
//     slack-0 budget masks (GuideMask).
package tables

import (
	"math/bits"
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

// budgetSlacks is the number of budget masks kept per viable assignment:
// slack 0, 1, 2, and 3-or-more.
const budgetSlacks = 4

// budgetRec is one assignment's budget masks, indexed by slack.
type budgetRec [budgetSlacks]Mask

// Table holds the precomputed per-assignment data for one machine.
type Table struct {
	m    *state.Machine
	npow [9]uint32 // (n+1)^i
	base uint32    // (n+1)^regs
	dist []uint8

	// Budget masks: rec maps a table index to its record in recs, whose
	// k-th mask holds the instructions whose successor has distance
	// ≤ d−1+k (k = 0..2) or any finite distance (k = 3), d being the
	// assignment's own distance. Records are built for the viable
	// assignments only and interned — assignments with equal masks share
	// one — and record 0 is the all-empty record of every assignment
	// without a finite distance. A dense mask array over the whole
	// assignment space would cost 24 bytes per entry per slack, most of
	// them dead assignments; the index costs 4.
	rec     []uint32
	recs    []budgetRec
	cmpMask Mask

	// index(a) is linear over the bits of a (each packed field contributes
	// weight(bit)·bitvalue), so it splits into precomputed per-byte
	// lookups — the per-register decomposition loop is far too hot for
	// the search's per-candidate MaxDist and GuideMask calls. The
	// decomposition lives in a state.DistLUT (two 256-entry byte tables
	// plus the high remainder, ~2.5 KB total) so the search's fused
	// apply+prune kernels index it straight out of L1; lut.Dist aliases
	// t.dist once the fixpoint has run.
	lut state.DistLUT
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
	return t.lut.B0[a&0xFF] + t.lut.B1[a>>8&0xFF] + t.lut.B2[a>>16]
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
// over its bits. Bytes beyond PackedBits contribute only the zero entry
// of their (size-1 or garbage-free) tables, so indexing with any valid
// packed assignment stays in range.
func (t *Table) buildLUT() {
	bits := t.m.PackedBits()
	// B0 and B1 are always full 256-entry tables (the consumers convert
	// them to *[256]uint32 for bounds-check-free indexing); entries for
	// bytes beyond PackedBits stay zero and are never reached by a valid
	// packed assignment.
	bytTab := func(shift int) []uint32 {
		width := min(max(bits-shift, 0), 8)
		tab := make([]uint32, 256)
		for x := 1; x < 1<<width; x++ {
			tab[x] = tab[x&(x-1)] + t.slowIndex(state.Asg(x&-x)<<shift)
		}
		return tab
	}
	t.lut.B0 = bytTab(0)
	t.lut.B1 = bytTab(8)
	// The high remainder keeps its full width (at most PackedBits-16
	// bits, 14 for the largest supported machine).
	hiWidth := max(bits-16, 0)
	t.lut.B2 = make([]uint32, 1<<hiWidth)
	for x := 1; x < len(t.lut.B2); x++ {
		t.lut.B2[x] = t.lut.B2[x&(x-1)] + t.slowIndex(state.Asg(x&-x)<<16)
	}
}

func build(m *state.Machine) *Table {
	set := m.Set
	n, regs := set.N, set.Regs()
	t := &Table{m: m}
	t.npow[0] = 1
	for i := 1; i <= regs; i++ {
		t.npow[i] = t.npow[i-1] * uint32(n+1)
	}
	t.base = t.npow[regs]
	t.buildLUT()
	// Flag codes 0..2 used (3 allocated for indexing simplicity), one
	// block per goal tag.
	size := int(t.base) * 4 * m.NumTags()
	t.dist = make([]uint8, size)
	t.lut.Dist = t.dist

	// Seed the fixpoint from every assignment.
	asgs := assignments(m)
	for i := range t.dist {
		t.dist[i] = Infinite
	}
	for _, a := range asgs {
		switch {
		case m.Sorted(a):
			t.dist[t.index(a)] = 0
		case m.Viable(a):
			t.dist[t.index(a)] = Infinite - 1 // unknown yet, finite
		}
	}

	instrs := set.Instrs()
	for changed := true; changed; {
		changed = false
		for _, a := range asgs {
			idx := t.index(a)
			d := t.dist[idx]
			if d == 0 || d == Infinite {
				continue
			}
			best := d
			for _, in := range instrs {
				nd := t.dist[t.index(m.Step(a, in))]
				if nd < Infinite-1 && nd+1 < best {
					best = nd + 1
				}
			}
			if best < d {
				t.dist[idx] = best
				changed = true
			}
		}
	}

	// Budget masks. Every instruction moves an assignment at most one
	// step closer to sorted (d ≤ 1 + dist(step), by the fixpoint), so a
	// successor's distance is d−1+k for some k ≥ 0 and the masks for k =
	// 0..2 nest inside each other and inside the finite mask.
	t.rec = make([]uint32, size)
	t.recs = []budgetRec{{}}
	interned := map[budgetRec]uint32{{}: 0}
	for _, a := range asgs {
		idx := t.index(a)
		d := int(t.dist[idx])
		if d >= Infinite-1 {
			continue
		}
		var r budgetRec
		for id, in := range instrs {
			nd := int(t.dist[t.index(m.Step(a, in))])
			if nd >= Infinite-1 {
				continue
			}
			for k := max(nd-(d-1), 0); k < budgetSlacks; k++ {
				r[k].Set(id)
			}
		}
		ri, ok := interned[r]
		if !ok {
			ri = uint32(len(t.recs))
			interned[r] = ri
			t.recs = append(t.recs, r)
		}
		t.rec[idx] = ri
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
	return t
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
func (t *Table) Dist(a state.Asg) int {
	d := t.dist[t.index(a)]
	if d >= Infinite-1 {
		return Infinite
	}
	return int(d)
}

// MaxDist returns the maximum assignment distance in s — an admissible
// lower bound on the number of instructions any completion still needs.
// It returns Infinite if some assignment is dead.
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

// DistLUT exposes the distance table and its byte-wise index
// decomposition for state.ApplyDist, the search's fused apply+prune
// kernel. The returned value aliases the table's storage and must be
// treated as read-only.
func (t *Table) DistLUT() *state.DistLUT {
	return &t.lut
}

// DistExceeds reports whether any assignment of s is dead or needs more
// than budget further instructions — i.e. whether MaxDist(s) > budget,
// with an early exit on the first offending assignment. budget must be
// below Infinite-1 (the search's depth bound always is), which lets the
// dead markers fall out of the same comparison.
func (t *Table) DistExceeds(s state.State, budget int) bool {
	for _, a := range s {
		if int(t.dist[t.index(a)]) > budget {
			return true
		}
	}
	return false
}

// GuideMask returns the union over the assignments of s of the
// first-optimal-instruction masks — the slack-0 budget masks — plus all
// cmp instructions (see build) when any assignment contributed one. An
// assignment with distance d > 0 always has a distance-d−1 successor, so
// the cmp instructions join exactly when some assignment of s is viable
// and unsorted.
func (t *Table) GuideMask(s state.State) Mask {
	var m Mask
	for _, a := range s {
		m.Or(t.recs[t.rec[t.index(a)]][0])
	}
	if m != (Mask{}) {
		m.Or(t.cmpMask)
	}
	return m
}

// BudgetMask returns the instructions whose successor of a state can
// pass the distance budget (every successor assignment within budget
// further instructions). pidx holds the state's distance-table indices
// (DistLUT.Index of each assignment). Each assignment picks its mask by
// its slack budget−d+1: over-budget candidates of slack 0..2 are exactly
// those outside the mask, and slack ≥ 3 drops only the candidates with
// a dead successor assignment. A negative slack, or an assignment
// without a finite distance, admits no candidate. The result is a sound
// superset of the candidates ApplyDist accepts at this budget.
func (t *Table) BudgetMask(pidx []uint32, budget int) Mask {
	m := Mask{^uint64(0), ^uint64(0), ^uint64(0)}
	for _, idx := range pidx {
		slack := budget + 1 - int(t.dist[idx])
		if slack < 0 {
			return Mask{}
		}
		m = m.And(t.recs[t.rec[idx]][min(slack, budgetSlacks-1)])
	}
	return m
}
