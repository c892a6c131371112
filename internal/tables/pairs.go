package tables

import (
	"fmt"
	"slices"

	"sortsynth/internal/state"
)

// maxPairV is the most viable assignments a pair table may cover:
// V ≤ 4096, so V² ≤ 2^24 entries (16 MB) and every id fits a uint16.
// Larger machines (cmov n=4 weak orders has V = 26,013) get no table
// and keep the single-assignment bound. Comparing V, not V², keeps the
// test exact where int is 32 bits wide.
const maxPairV = 1 << 12

// noID marks a table index without a viable assignment.
const noID = ^uint16(0)

// Pairs is the pair-distance table of one machine: for every two of its
// V viable assignments (finite Dist), the length of the shortest program
// that sorts both at once, or Infinite if no program does. A program
// that sorts a state sorts every pair of its assignments, so the
// largest pair distance of a state is an admissible lower bound on its
// remaining program length, and never below MaxDist (the pair (a, a)
// has distance Dist(a)). It is the two-assignment pattern database of
// heuristic search (Culberson & Schaeffer 1998), DESIGN.md §10.
//
// The domain is Dist's: the packed assignments of the machine whose
// flag code is one cmp can leave (0..2 on cmov machines, 0 on min/max
// machines). Dead assignments in that domain have distance Infinite to
// everything.
type Pairs struct {
	t   *Table
	v   int      // number of viable assignments
	id  []uint16 // table index → viable id, or noID
	d   []uint8  // v×v distances, row-major and symmetric
	top uint8    // the largest finite entry of d
	// apart marks the ids with an Infinite entry in their row: at a
	// limit of top or more, only pairs of two such ids can exceed it.
	// It is nil when every pair has a joint program.
	apart []bool
}

// Pairs returns the machine's pair-distance table, building it on the
// first call (For never does), or nil when V² exceeds the table cap.
// Safe for concurrent use; a concurrent first call waits for the build.
func (t *Table) Pairs() *Pairs {
	t.pairOnce.Do(func() { t.pairs = buildPairs(t) })
	return t.pairs
}

// buildPairs fills the table by backward breadth-first search over the
// product of the single-assignment transition graph: level 0 holds the
// pairs of sorted assignments, and the predecessors of a level-k pair
// (c, e) under instruction i are the pairs (a, b) whose i-successors
// are c and e. Only pairs with c ≤ e are queued and both orders of
// every predecessor are written, so each unordered pair is expanded
// once. Dead successors have no entry, so the distances are exactly the
// shortest joint programs through viable pairs — the only programs that
// can sort both. A 2-vCPU Xeon builds cmov n=3 in 3–5 ms, minmax n=4 in
// 9–12 ms, cmov n=3 weak orders in 0.2–0.35 s, cmov n=4 in 0.13–0.17 s
// and minmax n=5 in 0.7–0.8 s.
func buildPairs(t *Table) *Pairs {
	m := t.m
	var asgs []state.Asg
	for _, a := range assignments(m) {
		if t.dist[t.index(a)] != Infinite {
			asgs = append(asgs, a)
		}
	}
	v := len(asgs)
	if v > maxPairV {
		return nil
	}
	p := &Pairs{t: t, v: v, id: make([]uint16, len(t.dist)), d: make([]uint8, v*v)}
	for i := range p.id {
		p.id[i] = noID
	}
	for i, a := range asgs {
		p.id[t.index(a)] = uint16(i)
	}

	// An instruction that leaves an assignment unchanged gives a pair a
	// self-loop, or an edge that moves one side only; the BFS walks those
	// through fix, the instructions that fix each viable assignment. pre
	// lists the other viable predecessors of every viable assignment c,
	// grouped by instruction: pre[off[c*ni+i] : off[c*ni+i+1]] are those
	// under instruction i, and preI holds each entry's instruction, so
	// all of c's entries are one run of pre.
	instrs := m.Set.Instrs()
	ni := len(instrs)
	off := make([]int32, v*ni+1)
	succ := make([]uint16, v*ni)
	fix := make([]Mask, v)
	for a, x := range asgs {
		for i, in := range instrs {
			c := p.id[t.index(m.Step(x, in))]
			succ[a*ni+i] = c
			switch {
			case c == uint16(a):
				fix[a].Set(i)
			case c != noID:
				off[int(c)*ni+i+1]++
			}
		}
	}
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	pre := make([]uint16, off[len(off)-1])
	preI := make([]uint8, len(pre))
	fill := slices.Clone(off)
	for j, c := range succ {
		if a := j / ni; c != noID && c != uint16(a) {
			k := int(c)*ni + j%ni
			pre[fill[k]], preI[fill[k]] = uint16(a), uint8(j%ni)
			fill[k]++
		}
	}

	// seen is the visited set as a v×v bitset: the BFS tests it instead
	// of d, which touches an eighth of the memory.
	d := p.d
	for i := range d {
		d[i] = Infinite
	}
	var cur, next []uint32 // pairs c<<16 | e with c ≤ e
	words := (v + 63) / 64
	seen := make([]uint64, v*words)
	mark := func(a, b int, k uint8) {
		seen[a*words+b>>6] |= 1 << (b & 63)
		seen[b*words+a>>6] |= 1 << (a & 63)
		d[a*v+b], d[b*v+a] = k, k
	}
	visit := func(a, b int, k uint8) {
		if seen[a*words+b>>6]&(1<<(b&63)) == 0 {
			mark(a, b, k)
			next = append(next, uint32(min(a, b))<<16|uint32(max(a, b)))
		}
	}
	var sorted []int
	for c, x := range asgs {
		if m.Sorted(x) {
			sorted = append(sorted, c)
		}
	}
	for i, c := range sorted {
		for _, e := range sorted[i:] {
			mark(c, e, 0)
			cur = append(cur, uint32(c)<<16|uint32(e))
		}
	}
	for k := uint8(1); len(cur) > 0; k++ {
		next = next[:0]
		for _, ce := range cur {
			c, e := int(ce>>16), int(ce&0xFFFF)
			for j := off[c*ni]; j < off[c*ni+ni]; j++ {
				i, a := int(preI[j]), int(pre[j])
				if fix[e].Has(i) {
					visit(a, e, k)
				}
				for _, b := range pre[off[e*ni+i]:off[e*ni+i+1]] {
					visit(a, int(b), k)
				}
			}
			for j := off[e*ni]; j < off[e*ni+ni]; j++ {
				if i := int(preI[j]); fix[c].Has(i) {
					visit(c, int(pre[j]), k)
				}
			}
		}
		cur, next = next, cur
	}
	for i, x := range d {
		if x != Infinite {
			p.top = max(p.top, x)
			continue
		}
		if p.apart == nil {
			p.apart = make([]bool, v)
		}
		p.apart[i/v] = true
	}
	return p
}

// inDomain reports whether a is a packed assignment of the machine with
// a flag code cmp can leave: register values at most n, a goal tag in
// range, no bits above the packed width, and lt and gt never both set
// (neither on a machine without flags).
func (t *Table) inDomain(a state.Asg) bool {
	m := t.m
	flags := a & 3
	switch {
	case a>>m.PackedBits() != 0, m.Tag(a) >= m.NumTags(), flags == 3:
		return false
	case flags != 0 && !m.Set.HasFlags():
		return false
	}
	for r := 0; r < m.Set.Regs(); r++ {
		if m.Reg(a, r) > m.Set.N {
			return false
		}
	}
	return true
}

// checkedID returns a's viable id, or noID if a is dead. It panics if a
// is outside the table's domain (see Pairs), where the index could
// reach another assignment's entry.
func (p *Pairs) checkedID(a state.Asg) uint16 {
	if !p.t.inDomain(a) {
		panic(fmt.Sprintf("tables: pair lookup of %#x outside the table domain of %v (register values ≤ %d, goal tag < %d, lt and gt not both set)",
			uint32(a), p.t.m.Set, p.t.m.Set.N, p.t.m.NumTags()))
	}
	return p.id[p.t.index(a)]
}

// Dist returns the length of the shortest program sorting a and b
// together, or Infinite if none does (in particular if either is dead).
// It panics if a or b is outside the table's domain (see Pairs).
func (p *Pairs) Dist(a, b state.Asg) int {
	ia, ib := p.checkedID(a), p.checkedID(b)
	if ia == noID || ib == noID {
		return Infinite
	}
	return int(p.d[int(ia)*p.v+int(ib)])
}

// Max returns the largest pair distance over the assignments of s (the
// pair bound), or Infinite if some assignment is dead or some pair has
// no joint program. It is 0 exactly when every assignment is sorted. It
// panics if an assignment is outside the table's domain (see Pairs).
func (p *Pairs) Max(s state.State) int {
	ids := make([]uint16, len(s))
	for i, a := range s {
		if ids[i] = p.checkedID(a); ids[i] == noID {
			return Infinite
		}
	}
	top := 0
	for j, b := range ids {
		row := p.d[int(b)*p.v:][:p.v]
		for _, a := range ids[:j+1] {
			top = max(top, int(row[a]))
		}
	}
	return top
}

// Exceeds reports whether Max(s) > limit, stopping at the first pair
// over it: the search's pair bound check. It skips the domain check:
// every assignment of s must be viable and in the domain (the search
// checks only children that passed the budget mask), and 0 ≤ limit.
// At a limit of at least the largest finite distance — a search whose
// bound is still far off — only pairs without a joint program exceed
// it, so only assignments marked apart are compared.
func (p *Pairs) Exceeds(s state.State, limit int) bool {
	far := limit >= int(p.top)
	if far && p.apart == nil {
		return false
	}
	var buf [128]uint16
	ids := buf[:0]
	lim := uint8(min(limit, Infinite-1))
	for _, a := range s {
		id := p.id[p.t.index(a)]
		if far && !p.apart[id] {
			continue
		}
		ids = append(ids, id)
		row := p.d[int(id)*p.v:][:p.v]
		for _, b := range ids {
			if row[b] > lim {
				return true
			}
		}
	}
	return false
}
