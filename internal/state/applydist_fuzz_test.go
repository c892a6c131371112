package state_test

// Differential fuzzing of the batched state kernels against the
// per-assignment Step oracle. The fuzzer steers the packed bit patterns,
// machine choice, instruction choice, and prune budget; living in the
// external test package, the target checks the search's budget verdict,
// the fused candidate pass of internal/tables, with the *real* distance
// tables.

import (
	"encoding/binary"
	"testing"

	"sortsynth/internal/isa"
	"sortsynth/internal/state"
	"sortsynth/internal/tables"
)

// fuzzMachines covers both ISAs, both suites, register counts up to the
// packed limit, and (via cmov n=5) a projection field too wide for the
// direct-indexed cut table, so both ErasedCountExceeds paths run.
var fuzzMachines = []*state.Machine{
	state.NewMachine(isa.NewCmov(2, 1)),
	state.NewMachine(isa.NewCmov(3, 1)),
	state.NewMachine(isa.NewCmov(4, 1)),
	state.NewMachine(isa.NewCmov(5, 2)),
	state.NewMachine(isa.NewMinMax(3, 2)),
	state.NewMachine(isa.NewMinMax(4, 1)),
	state.NewMachineSuite(isa.NewCmov(3, 1), state.SuiteWeakOrders),
	state.NewMachineSuite(isa.NewMinMax(3, 1), state.SuiteWeakOrders),
}

// clampAsg forces an arbitrary fuzzed word into the machine's packed
// domain: register values at most n, tag below the goal-table size, and
// a flag code cmp can leave — at most one of lt and gt on flag-carrying
// machines (cmp sets one flag or none, so both never occur), none on
// min/max machines. The distance tables are only defined on that domain
// (exactly the states the search can reach): out-of-range nibbles would
// index garbage, a both-flags assignment reads as dead while its cmp
// successor does not, and a flag on a min/max machine reads as dead
// too, rather than exercising the contract.
func clampAsg(m *state.Machine, a state.Asg) state.Asg {
	n := m.Set.N
	vals := m.Unpack(a)
	for i, v := range vals {
		vals[i] = v % (n + 1)
	}
	lt, gt := m.Flags(a)
	if !m.Set.HasFlags() {
		lt, gt = false, false
	}
	out := m.Pack(vals, lt, gt && !lt)
	return m.WithTag(out, m.Tag(a)%m.NumTags())
}

// FuzzApplyDistVsStep is the differential gate for the search's apply
// path and its distance verdict. For a fuzzer-chosen machine, budget,
// and state, and for every instruction of the machine's set: ApplyRaw
// must equal the per-assignment Step loop bit for bit; the budget mask
// of the fused candidate pass (tables.Candidates) must hold the
// instruction exactly when every stepped assignment's distance is
// within budget, on the whole state and at each assignment's exact
// threshold; the batched goal/viability checks must equal their
// per-assignment forms on the input and every successor (the cut's
// projection count is FuzzErasedBound's). Every input runs every
// instruction, so a fault in any one op's kernel shows on the first
// input that exercises it. (The name predates the fused apply+prune
// kernel's removal; the corpus keeps it.)
func FuzzApplyDistVsStep(f *testing.F) {
	tabs := make([]*tables.Table, len(fuzzMachines))
	for i, m := range fuzzMachines {
		tabs[i] = tables.For(m)
	}

	f.Add([]byte{})
	f.Add([]byte{0, 0, 4, 1})
	f.Add([]byte{2, 7, 9, 3, 0x21, 0x43, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte("applydist-vs-step differential seed"))
	f.Add([]byte("\x04min/max scratch-pair differential seed"))
	f.Add([]byte("\x07min/max weak-order differential seed"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		// data[1] and data[3] are unused (the corpus keeps its layout):
		// every instruction runs on every input.
		mi := int(data[0]) % len(fuzzMachines)
		m, tab := fuzzMachines[mi], tabs[mi]
		budget := int(data[2]) % 24
		data = data[4:]

		k := len(data) / 4
		if k > 64 {
			k = 64
		}
		s := make(state.State, k)
		for i := 0; i < k; i++ {
			s[i] = clampAsg(m, state.Asg(binary.LittleEndian.Uint32(data[i*4:])))
		}

		checkPredicates(t, m, s)
		_, fit := tab.Candidates(s, budget)
		want := make(state.State, len(s))
		for id, in := range m.Set.Instrs() {
			// ApplyRaw against the per-assignment Step loop, bit for bit.
			within := true
			for i, a := range s {
				want[i] = m.Step(a, in)
				if tab.Dist(want[i]) > budget {
					within = false
				}
			}
			got := m.ApplyRaw(nil, s, in)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v %s asg[%d]=%08x: ApplyRaw %08x, Step %08x",
						m.Set, in.Format(m.Set.N), i, s[i], got[i], want[i])
				}
			}

			// The budget mask's verdict is "every successor within
			// budget", both ways.
			if fit.Has(id) != within {
				t.Fatalf("%v %s budget=%d: budget mask has=%v, Step distances within budget=%v",
					m.Set, in.Format(m.Set.N), budget, fit.Has(id), within)
			}
			// The exact threshold per assignment: a one-assignment state
			// whose successor has finite distance d is admitted at
			// budget d and dropped at d−1. Random states rarely have
			// every successor in budget, so this is what reaches each
			// op's successor on most inputs.
			for i, a := range s {
				d := tab.Dist(want[i])
				if d == tables.Infinite {
					continue
				}
				if _, fit := tab.Candidates(s[i:i+1], d); !fit.Has(id) {
					t.Fatalf("%v %s asg=%08x: budget mask drops at budget %d a successor (%08x) of distance %d",
						m.Set, in.Format(m.Set.N), a, d, want[i], d)
				}
				if d == 0 {
					continue
				}
				if _, fit := tab.Candidates(s[i:i+1], d-1); fit.Has(id) {
					t.Fatalf("%v %s asg=%08x: budget mask admits at budget %d a successor of distance %d",
						m.Set, in.Format(m.Set.N), a, d-1, d)
				}
			}
			checkPredicates(t, m, want)
		}
	})
}

// checkPredicates compares the batched goal and viability checks with
// their per-assignment forms on x.
func checkPredicates(t *testing.T, m *state.Machine, x state.State) {
	t.Helper()
	sorted, viable := true, true
	for _, a := range x {
		sorted = sorted && m.Sorted(a)
		viable = viable && m.Viable(a)
	}
	if m.AllSorted(x) != sorted {
		t.Fatalf("%v: AllSorted=%v, per-assignment Sorted=%v on %v", m.Set, !sorted, sorted, x)
	}
	if m.AllViable(x) != viable {
		t.Fatalf("%v: AllViable=%v, per-assignment Viable=%v on %v", m.Set, !viable, viable, x)
	}
}
