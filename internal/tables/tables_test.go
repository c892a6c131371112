package tables

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sortsynth/internal/isa"
	"sortsynth/internal/state"
)

func TestDistSortedIsZero(t *testing.T) {
	m := state.NewMachine(isa.NewCmov(3, 1))
	tab := For(m)
	a := m.Pack([]int{1, 2, 3, 2}, true, false)
	if got := tab.Dist(a); got != 0 {
		t.Errorf("Dist(sorted) = %d, want 0", got)
	}
}

func TestDistDeadIsInfinite(t *testing.T) {
	m := state.NewMachine(isa.NewCmov(3, 1))
	tab := For(m)
	// Value 1 erased.
	a := m.Pack([]int{2, 2, 3, 0}, false, false)
	if got := tab.Dist(a); got != Infinite {
		t.Errorf("Dist(dead) = %d, want Infinite", got)
	}
}

func TestViableAssignmentsHaveFiniteDist(t *testing.T) {
	// With one scratch register, every viable assignment can be sorted by
	// data movement alone, so every viable assignment must have a finite
	// distance.
	m := state.NewMachine(isa.NewCmov(3, 1))
	tab := For(m)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		regs := make([]int, 4)
		for i := range regs {
			regs[i] = rng.Intn(4)
		}
		a := m.Pack(regs, false, false)
		d := tab.Dist(a)
		if m.Viable(a) {
			if d == Infinite {
				t.Fatalf("viable assignment %v has infinite distance", regs)
			}
		} else if d != Infinite {
			t.Fatalf("dead assignment %v has finite distance %d", regs, d)
		}
	}
}

func TestDistIsRealizable(t *testing.T) {
	// Property: from any viable assignment, greedily following
	// distance-decreasing instructions reaches a sorted assignment in
	// exactly Dist steps.
	for _, set := range []*isa.Set{isa.NewCmov(3, 1), isa.NewMinMax(3, 1)} {
		m := state.NewMachine(set)
		tab := For(m)
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 200; trial++ {
			regs := make([]int, set.Regs())
			for i := range regs {
				regs[i] = rng.Intn(set.N + 1)
			}
			a := m.Pack(regs, false, false)
			if !m.Viable(a) {
				continue
			}
			d := tab.Dist(a)
			for step := 0; step < d; step++ {
				cur := tab.Dist(a)
				found := false
				for _, in := range set.Instrs() {
					if b := m.Step(a, in); tab.Dist(b) == cur-1 {
						a, found = b, true
						break
					}
				}
				if !found {
					t.Fatalf("%v: no distance-decreasing instruction from %v (dist %d)", set, m.Unpack(a), cur)
				}
			}
			if !m.Sorted(a) {
				t.Fatalf("%v: greedy descent did not sort %v", set, regs)
			}
		}
	}
}

func TestDistLowerBoundProperty(t *testing.T) {
	// Property: applying any instruction changes the distance by at most 1
	// upward from optimal, i.e. dist(s) <= 1 + dist(step(s,i)).
	m := state.NewMachine(isa.NewCmov(3, 1))
	tab := For(m)
	rng := rand.New(rand.NewSource(3))
	instrs := m.Set.Instrs()
	for trial := 0; trial < 1000; trial++ {
		regs := make([]int, 4)
		for i := range regs {
			regs[i] = rng.Intn(4)
		}
		a := m.Pack(regs, false, false)
		if !m.Viable(a) {
			continue
		}
		in := instrs[rng.Intn(len(instrs))]
		b := m.Step(a, in)
		db := tab.Dist(b)
		if db == Infinite {
			continue
		}
		if tab.Dist(a) > 1+db {
			t.Fatalf("triangle inequality violated: dist(%v)=%d, dist(step)=%d", regs, tab.Dist(a), db)
		}
	}
}

func TestMaxDist(t *testing.T) {
	m := state.NewMachine(isa.NewCmov(3, 1))
	tab := For(m)
	init := m.Initial()
	got := tab.MaxDist(init)
	if got <= 0 || got == Infinite {
		t.Fatalf("MaxDist(initial) = %d, want finite positive", got)
	}
	// The admissible bound can never exceed the known optimal length 11.
	if got > 11 {
		t.Errorf("MaxDist(initial) = %d exceeds optimal program length 11", got)
	}
}

func TestGuideMaskIncludesCmpAndOptimalMoves(t *testing.T) {
	set := isa.NewCmov(3, 1)
	m := state.NewMachine(set)
	tab := For(m)
	mask, _ := tab.Candidates(m.Initial(), 10)
	hasCmp, hasMove := false, false
	for id, in := range set.Instrs() {
		if !mask.Has(id) {
			continue
		}
		if in.Op == isa.Cmp {
			hasCmp = true
		} else {
			hasMove = true
		}
	}
	if !hasCmp {
		t.Error("guide mask excludes cmp instructions")
	}
	if !hasMove {
		t.Error("guide mask contains no data-movement instruction")
	}
}

func TestCacheReturnsSameTable(t *testing.T) {
	m := state.NewMachine(isa.NewCmov(3, 1))
	if For(m) != For(m) {
		t.Error("For did not cache the table")
	}
}

func TestMaskOps(t *testing.T) {
	var m Mask
	m.Set(3)
	m.Set(70)
	if !m.Has(3) || !m.Has(70) || m.Has(4) {
		t.Error("Mask set/has wrong")
	}
	var o Mask
	o.Set(100)
	m.Or(o)
	if !m.Has(100) || !m.Has(3) {
		t.Error("Mask Or wrong")
	}
	if got := m.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	if got := m.First(); got != 3 {
		t.Errorf("First = %d, want 3", got)
	}
	if got := (Mask{}).First(); got != -1 {
		t.Errorf("First of empty = %d, want -1", got)
	}
	for _, tc := range []struct{ id, want int }{{0, 0}, {3, 0}, {4, 1}, {70, 1}, {71, 2}, {100, 2}, {101, 3}, {MaskWords * 64, 3}} {
		if got := m.Below(tc.id).Count(); got != tc.want {
			t.Errorf("Below(%d) has %d members, want %d", tc.id, got, tc.want)
		}
	}
	if got := m.And(o); got != o {
		t.Errorf("And = %x, want %x", got, o)
	}
	if got := m.AndNot(o); got.Has(100) || got.Count() != 2 {
		t.Errorf("AndNot = %x, want {3, 70}", got)
	}
	if all := MaskOf(70); all.Count() != 70 || !all.Has(69) || all.Has(70) {
		t.Errorf("MaskOf(70) = %x", all)
	}
}

// maskMachines are the cmov and minmax machines for n = 2..4 under both
// test suites, plus two-scratch-register machines.
func maskMachines() []*state.Machine {
	var ms []*state.Machine
	for _, suite := range []state.Suite{state.SuitePermutations, state.SuiteWeakOrders} {
		for n := 2; n <= 4; n++ {
			ms = append(ms,
				state.NewMachineSuite(isa.NewCmov(n, 1), suite),
				state.NewMachineSuite(isa.NewMinMax(n, 1), suite))
		}
	}
	return append(ms, state.NewMachine(isa.NewCmov(3, 2)), state.NewMachine(isa.NewMinMax(3, 2)))
}

// TestBudgetMaskSoundAndExact checks the budget mask of every
// single-assignment state at every budget from 0 to one past the
// largest distance: it holds exactly the instructions whose successor
// has distance ≤ budget.
func TestBudgetMaskSoundAndExact(t *testing.T) {
	for _, m := range maskMachines() {
		tab := For(m)
		instrs := m.Set.Instrs()
		asgs := assignments(m)
		maxDist := 0
		for _, d := range tab.dist {
			if d < Infinite-1 {
				maxDist = max(maxDist, int(d))
			}
		}
		succ := make([]int, len(instrs))
		for _, a := range asgs {
			idx := tab.index(a)
			d := int(tab.dist[idx])
			for id, in := range instrs {
				succ[id] = int(tab.dist[tab.index(m.Step(a, in))])
			}
			for budget := 0; budget <= maxDist+1; budget++ {
				var fits Mask
				for id, nd := range succ {
					if nd <= budget {
						fits.Set(id)
					}
				}
				_, got := tab.Candidates(state.State{a}, budget)
				if lost := fits.AndNot(got); lost != (Mask{}) {
					t.Fatalf("%v %v: asg %v (dist %d) budget %d: mask drops in-budget instruction %d",
						m.Set, m.Suite, m.Unpack(a), d, budget, lost.First())
				}
				if extra := got.AndNot(fits); extra != (Mask{}) {
					t.Fatalf("%v %v: asg %v (dist %d) budget %d: mask keeps over-budget instruction %d",
						m.Set, m.Suite, m.Unpack(a), d, budget, extra.First())
				}
			}
		}
	}
}

// TestBudgetMaskExactOnStates checks whole states, both ways: an
// instruction is in a state's budget mask exactly when every stepped
// assignment's distance is within budget. States are random walks from
// the initial state, so they are the kind the search expands.
func TestBudgetMaskExactOnStates(t *testing.T) {
	for _, m := range []*state.Machine{
		state.NewMachine(isa.NewCmov(3, 1)),
		state.NewMachine(isa.NewMinMax(3, 1)),
		state.NewMachine(isa.NewCmov(3, 2)),
		state.NewMachine(isa.NewMinMax(3, 2)),
		state.NewMachine(isa.NewMinMax(5, 1)),
		state.NewMachineSuite(isa.NewCmov(3, 1), state.SuiteWeakOrders),
	} {
		tab := For(m)
		rng := rand.New(rand.NewSource(5))
		instrs := m.Set.Instrs()
		for trial := 0; trial < 300; trial++ {
			st := m.Initial()
			for step := rng.Intn(8); step > 0; step-- {
				st = m.ApplyRaw(nil, st, instrs[rng.Intn(len(instrs))])
			}
			for budget := 0; budget <= 14; budget++ {
				_, fit := tab.Candidates(st, budget)
				for id, in := range instrs {
					within := true
					for _, a := range st {
						if tab.Dist(m.Step(a, in)) > budget {
							within = false
							break
						}
					}
					if fit.Has(id) != within {
						t.Fatalf("%v %v budget %d, %s: mask has=%v, every successor within budget=%v",
							m.Set, m.Suite, budget, in.Format(m.Set.N), fit.Has(id), within)
					}
				}
			}
		}
	}
}

func TestGuideMaskMatchesFirstOptimalDefinition(t *testing.T) {
	// The guide's definition for a single assignment (paper §3.2): for
	// 0 < d < ∞, every cmp plus every instruction whose successor has
	// distance d−1; empty otherwise. Candidates reads it off the slack-0
	// budget masks instead of a table of its own.
	for _, m := range maskMachines() {
		tab := For(m)
		instrs := m.Set.Instrs()
		for _, a := range assignments(m) {
			var want Mask
			if d := tab.dist[tab.index(a)]; d > 0 && d < Infinite-1 {
				for id, in := range instrs {
					if in.Op == isa.Cmp || tab.dist[tab.index(m.Step(a, in))] == d-1 {
						want.Set(id)
					}
				}
			}
			if got, _ := tab.Candidates(state.State{a}, 0); got != want {
				t.Fatalf("%v %v: guide of %v = %x, want %x", m.Set, m.Suite, m.Unpack(a), got, want)
			}
		}
	}
}

// TestBudgetLevelsFromRise pins the record depth: on every machine here
// a finite successor is at most one step further from sorted than its
// parent, so three levels (slack 0, 1, and 2-or-more) are exact.
func TestBudgetLevelsFromRise(t *testing.T) {
	for _, m := range maskMachines() {
		if got := For(m).levels; got != 3 {
			t.Errorf("%v %v: %d budget levels, want 3", m.Set, m.Suite, got)
		}
	}
}

// sweepBuild is the reference build TestBFSMatchesSweep compares build
// against: the distances by Gauss-Seidel relaxation to a fixpoint —
// every pass relaxes dist(a) to 1 + min dist(Step(a, i)) over every
// assignment and instruction until nothing changes, the definition read
// forwards through Step alone — then the same budget-mask pass as
// build. Viable assignments the fixpoint never reaches (no program
// sorts them) end as Infinite, as in build.
func sweepBuild(m *state.Machine) *Table {
	t := newTable(m)
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
	instrs := m.Set.Instrs()
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
	for i, d := range t.dist {
		if d == Infinite-1 {
			t.dist[i] = Infinite
		}
	}
	t.buildMasks(asgs)
	return t
}

// TestBFSMatchesSweep requires the backward search to build the
// reference sweep's table byte for byte — distances, record index,
// masks and depth — on the mask machines and min/max n=5 (with them,
// every table a cold perfbench set-up warms), and on machines without
// scratch registers: only there do viable assignments exist that no
// program sorts.
func TestBFSMatchesSweep(t *testing.T) {
	ms := append(maskMachines(),
		state.NewMachine(isa.NewMinMax(5, 1)),
		state.NewMachine(isa.NewCmov(2, 0)),
		state.NewMachine(isa.NewCmov(3, 0)),
		state.NewMachine(isa.NewCmov(4, 0)),
		state.NewMachine(isa.NewMinMax(3, 0)),
		state.NewMachineSuite(isa.NewMinMax(4, 0), state.SuiteWeakOrders))
	for _, m := range ms {
		got, want := For(m), sweepBuild(m)
		switch {
		case !slices.Equal(got.dist, want.dist):
			t.Errorf("%v %v: distances differ from the sweep", m.Set, m.Suite)
		case !slices.Equal(got.rec, want.rec):
			t.Errorf("%v %v: record index differs from the sweep", m.Set, m.Suite)
		case !slices.Equal(got.masks, want.masks):
			t.Errorf("%v %v: masks differ from the sweep", m.Set, m.Suite)
		case got.levels != want.levels || got.cmpMask != want.cmpMask:
			t.Errorf("%v %v: levels %d, cmp mask %x; the sweep gives %d, %x",
				m.Set, m.Suite, got.levels, got.cmpMask, want.levels, want.cmpMask)
		}
	}
}

// BenchmarkTableBuild times one cold table build (For caches, so it
// calls build directly) on the two largest tables perfbench warms.
func BenchmarkTableBuild(b *testing.B) {
	for _, m := range []*state.Machine{
		state.NewMachineSuite(isa.NewCmov(4, 1), state.SuiteWeakOrders),
		state.NewMachine(isa.NewMinMax(5, 1)),
	} {
		b.Run(fmt.Sprintf("%v/%v", m.Set, m.Suite), func(b *testing.B) {
			for range b.N {
				build(m)
			}
		})
	}
}
