package enum

import (
	"sortsynth/internal/state"
	"sortsynth/internal/tables"
)

// candidates is one parent's candidate instructions, split before any
// successor is built. keep holds the instructions that go on to the
// apply and the exact prune; drop holds those already known to die, and
// is never applied: the budget mask (tables.BudgetMask, DESIGN.md §10)
// proves them over budget, or the pre-apply cut claims them (cut ⊆
// drop). book charges the dropped candidates to the counters — Generated,
// plus CutCount or Pruned — exactly as a candidate-by-candidate apply
// loop would have, including one that stops mid-expansion at its first
// solution.
type candidates struct {
	keep, drop, cut tables.Mask
}

// candidates builds one parent's candidate set. st is
// the parent state, budget the children's remaining instruction budget,
// and preCut reports that the parent's distinct projection count already
// exceeds the §3.5 cut limit: a projection-preserving instruction hands
// its child that same count (state.ProjPreserving) and cannot sort it
// (the parent is not sorted), so its candidates are cut without an
// apply. With dist-pruning on, the parent's distance-table indices are
// written to *pidx and the budget mask is taken over them.
func (s *searcher) candidates(st state.State, pidx *[]uint32, budget int, preCut bool) candidates {
	set := s.instrMask
	if s.opt.UseActionGuide {
		set = s.tab.GuideMask(st)
	}
	c := candidates{keep: set}
	if preCut {
		c.cut = set.And(s.projPres)
		c.keep = c.keep.AndNot(s.projPres)
	}
	if s.opt.UseDistPrune && budget >= 0 {
		p := (*pidx)[:0]
		for _, a := range st {
			p = append(p, s.lut.Index(a))
		}
		*pidx = p
		c.keep = c.keep.And(s.tab.BudgetMask(p, budget))
	}
	c.drop = set.AndNot(c.keep)
	return c
}

// allIDs is past every instruction ID a Mask can hold.
const allIDs = tables.MaskWords * 64

// next returns the next kept instruction ID in ascending order, or false
// once the set is exhausted.
func (c *candidates) next() (int, bool) {
	id := c.keep.First()
	if id >= 0 {
		c.keep[id>>6] &^= 1 << (id & 63)
	}
	return id, id >= 0
}

// book charges the dropped candidates with IDs below end to the gen,
// cut and pruned counters by popcount: all of them (end = allIDs) once
// the walk is exhausted, or those before the kept instruction at which
// the walk stopped.
func (c *candidates) book(end int, gen, cut, pruned *int64) {
	dropped := c.drop.Below(end)
	n, nc := int64(dropped.Count()), int64(dropped.And(c.cut).Count())
	*gen += n
	*cut += nc
	*pruned += n - nc
}
