package enum

import (
	"sortsynth/internal/state"
	"sortsynth/internal/tables"
)

// candidates is one parent's candidate instructions, split before any
// successor is built. keep holds the instructions the walk reaches in
// ID order; those in claim ⊆ keep are cut when reached, without an
// apply, and the rest are applied. drop holds those already known to
// die, and is never applied: the budget mask (tables.Candidates,
// DESIGN.md §10) proves them over budget, or the pre-apply cut claims
// them (cut ⊆ drop). The search books a claimed candidate as cut when
// the walk reaches it, and book charges the dropped candidates to the
// counters — Generated, plus CutCount or Pruned — exactly as a
// candidate-by-candidate apply-and-check loop would have, including one
// that stops mid-expansion at its first solution.
type candidates struct {
	keep, drop, cut, claim tables.Mask
}

// candidates builds one parent's candidate set. st is the parent state,
// budget the children's remaining instruction budget, and intLimit the
// §3.5 cut limit, from which cutMask finds the instructions whose
// children the cut drops. The apply-and-check loop booked a cut child
// as cut only once it fitted the budget, so a cut candidate outside the
// budget mask stays pruned, and one inside it is claimed: kept for the
// walk, which books it when it gets there, so a bound lowered before
// then prunes it (rebudget). The projection-preserving candidates are
// the exception, kept from before the budget mask was exact: the search
// has always booked them as cut, inside the mask or not, and they stay
// in drop. The action guide and the budget mask come from one walk over
// st.
func (s *searcher) candidates(st state.State, budget, intLimit int) candidates {
	set, fit := s.instrMask, s.instrMask
	if s.opt.UseActionGuide || s.opt.UseDistPrune {
		guide, budgetFit := s.tab.Candidates(st, budget)
		if s.opt.UseActionGuide {
			set = guide
		}
		if s.opt.UseDistPrune {
			fit = budgetFit
		}
	}
	cut := s.cutMask(st, intLimit, set.And(fit))
	c := candidates{cut: set.And(cut).And(s.projPres)}
	c.keep = set.And(fit).AndNot(c.cut)
	c.claim = c.keep.And(cut)
	c.drop = set.AndNot(c.keep)
	return c
}

// rebudget moves the kept candidates outside fit, the budget mask at a
// bound lowered mid-expansion, to the dropped ones, where book charges
// them as pruned; claimed ones among them included.
func (c *candidates) rebudget(fit tables.Mask) {
	c.drop.Or(c.keep.AndNot(fit))
	c.keep = c.keep.And(fit)
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
