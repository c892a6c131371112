package state_test

import (
	"testing"

	"sortsynth/internal/isa"
	"sortsynth/internal/state"
	"sortsynth/internal/tables"
)

// pairMachines are the fuzzed machines with a pair table: both ISAs,
// both suites, one and two scratch registers, up to cmov and min/max
// n=4.
var pairMachines = []*state.Machine{
	state.NewMachine(isa.NewCmov(2, 1)),
	state.NewMachine(isa.NewCmov(3, 1)),
	state.NewMachine(isa.NewCmov(4, 1)),
	state.NewMachine(isa.NewMinMax(3, 2)),
	state.NewMachine(isa.NewMinMax(4, 1)),
	state.NewMachineSuite(isa.NewCmov(3, 1), state.SuiteWeakOrders),
	state.NewMachineSuite(isa.NewMinMax(3, 1), state.SuiteWeakOrders),
}

// FuzzPairBound checks the pair bound of the exact searches on states
// the search can reach: data[0] picks the machine and every further
// byte an instruction of a walk from the initial state. On the state
// the walk ends in, the largest pair distance (Pairs.Max) must be at
// least MaxDist, 0 exactly when every assignment is sorted, and at most
// one more than that of every child whose assignments are all viable —
// one instruction shortens a joint program by at most one. The
// search's early-exit check, Pairs.Exceeds, must agree with Max at
// every limit the search can pass it.
func FuzzPairBound(f *testing.F) {
	pairs := make([]*tables.Pairs, len(pairMachines))
	for i, m := range pairMachines {
		if pairs[i] = tables.For(m).Pairs(); pairs[i] == nil {
			f.Fatalf("%v %v: no pair table", m.Set, m.Suite)
		}
	}

	f.Add([]byte{})
	f.Add([]byte{1, 0, 7, 3, 19, 2})
	f.Add([]byte("\x02cmov n=4 pair-bound walk"))
	f.Add([]byte("\x05weak-order cmov walk with ties"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		mi := int(data[0]) % len(pairMachines)
		m, p, tab := pairMachines[mi], pairs[mi], tables.For(pairMachines[mi])
		instrs := m.Set.Instrs()
		s := m.Initial()
		for _, b := range data[1:min(len(data), 65)] {
			s = m.Apply(nil, s, instrs[int(b)%len(instrs)])
		}

		h := p.Max(s)
		if d := tab.MaxDist(s); h < d {
			t.Fatalf("%v %v: pair bound %d below MaxDist %d on %v", m.Set, m.Suite, h, d, s)
		}
		if sorted := m.AllSorted(s); (h == 0) != sorted {
			t.Fatalf("%v %v: pair bound %d, AllSorted=%v on %v", m.Set, m.Suite, h, sorted, s)
		}
		if !m.AllViable(s) {
			return
		}
		for limit := 0; limit < tables.Infinite; limit++ {
			if got := p.Exceeds(s, limit); got != (h > limit) {
				t.Fatalf("%v %v: Exceeds(limit %d) = %v with pair bound %d", m.Set, m.Suite, limit, got, h)
			}
		}
		for _, in := range instrs {
			child := m.Apply(nil, s, in)
			if !m.AllViable(child) {
				continue
			}
			if hc := p.Max(child); h > 1+hc {
				t.Fatalf("%v %v: pair bound %d above 1 + %d, the bound after %s, on %v",
					m.Set, m.Suite, h, hc, in.Format(m.Set.N), s)
			}
		}
	})
}
