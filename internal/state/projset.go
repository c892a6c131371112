package state

import "sortsynth/internal/isa"

const (
	projSetBits  = 8
	projSetSlots = 1 << projSetBits
)

// ProjPreserving reports whether in can never change the
// projection-and-tag field of any assignment: cmp writes only the flag
// bits, and any op targeting a scratch register writes entirely below
// the projection field. A successor produced by such an instruction has
// exactly its parent's multiset of projections, so its distinct
// projection count — PermCount on the canonical state, the §3.5 cut's
// quantity — is the parent's, and the search skips the per-assignment
// recount for these candidates.
func (m *Machine) ProjPreserving(in isa.Instr) bool {
	return in.Op == isa.Cmp || m.shift[in.Dst]+4 <= m.permShift
}

// projDirectBits is the widest projection-and-tag key served by the
// direct-indexed stamp table (64 K uint16 stamps). The permutation
// machines up to n=4 and the weak-order machine at n=3 fit; wider
// machines (n=5) fall back to the hashed probe table, except for the
// erased counts, whose keys are a nibble narrower.
const projDirectBits = 16

// ProjSet is reusable scratch for ErasedCountExceeds: an epoch-stamped
// set of permutation projections. Stamping makes clearing free (bump the
// epoch instead of zeroing the table). Keys that fit projDirectBits use
// a direct-indexed stamp per possible key — one load, no hashing, no
// probe chain; wider keys use the open-addressing table, whose 256 slots
// keep the load factor under 25% for the at-most-64 projections the cut
// test tracks. The zero value is ready for use; a ProjSet must not be
// shared between goroutines.
type ProjSet struct {
	stamp []uint32
	proj  []Asg
	epoch uint32

	direct      []uint16 // 1<<projDirectBits stamps, indexed by key
	directEpoch uint16
}

// ErasedCountExceeds reports whether s has more than limit distinct
// permutation projections once register r's nibble is erased from each.
// It accepts a raw or canonical state, exits as soon as the count passes
// limit, and errs only on the side of false (limit ≥ 64 or ≥ len(s)
// answers false). The stamped set pays a near-constant probe per
// assignment (a single direct-indexed load on machines narrow enough for
// the direct table), and the search runs it on every parent over the cut
// limit.
//
// It bounds the §3.5 cut's quantity before an apply: an instruction
// writes at most one register r, so two assignments whose projections
// differ outside r's nibble still differ after it, and the successor's
// distinct projection count is at least the erased count of its parent.
// When r is a scratch register nothing in the projection is erased, and
// the test counts the distinct projections themselves.
func (m *Machine) ErasedCountExceeds(s State, r, limit int, ps *ProjSet) bool {
	if r >= m.Set.N {
		return m.countExceeds(s, ^Asg(0), 0, limit, ps)
	}
	return m.countExceeds(s, 1<<(4*r)-1, 4, limit, ps)
}

// countExceeds reports whether s has more than limit distinct keys: an
// assignment's key is its projection p with the nibbles above low moved
// down by w bits, p&low | p>>w&^low. w = 0 keys on the projection
// itself; w = 4 drops the nibble just above low, so the keys of the
// erased counts are a nibble narrower than the projection field.
func (m *Machine) countExceeds(s State, low Asg, w uint, limit int, ps *ProjSet) bool {
	if limit >= len(s) || limit >= 64 {
		return false
	}
	if m.projBits-int(w) <= projDirectBits {
		if ps.direct == nil {
			ps.direct = make([]uint16, 1<<projDirectBits)
		}
		ps.directEpoch++
		if ps.directEpoch == 0 { // wrapped: stale stamps could alias, clear once
			clear(ps.direct)
			ps.directEpoch = 1
		}
		epoch := ps.directEpoch
		tab := ps.direct
		cnt := 0
		for _, a := range s {
			p := a >> m.permShift
			st := &tab[p&low|p>>w&^low]
			if *st != epoch {
				if cnt == limit {
					return true
				}
				*st = epoch
				cnt++
			}
		}
		return false
	}
	if ps.stamp == nil {
		ps.stamp = make([]uint32, projSetSlots)
		ps.proj = make([]Asg, projSetSlots)
	}
	ps.epoch++
	if ps.epoch == 0 { // wrapped: stale stamps could alias, clear once
		clear(ps.stamp)
		ps.epoch = 1
	}
	epoch := ps.epoch
	cnt := 0
	for _, a := range s {
		p := a >> m.permShift
		p = p&low | p>>w&^low
		i := (uint32(p) * 2654435761) >> (32 - projSetBits)
		for {
			if ps.stamp[i] != epoch {
				if cnt == limit {
					return true
				}
				ps.stamp[i] = epoch
				ps.proj[i] = p
				cnt++
				break
			}
			if ps.proj[i] == p {
				break
			}
			i = (i + 1) & (projSetSlots - 1)
		}
	}
	return false
}
