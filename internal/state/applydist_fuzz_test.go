package state_test

// Differential fuzzing of the batched state kernels against the
// per-assignment Step oracle. The fuzzer steers the packed bit patterns,
// machine choice, instruction choice, and prune budget; living in the
// external test package, the target checks the fused ApplyDist kernel
// with the *real* distance tables from internal/tables.

import (
	"encoding/binary"
	"testing"

	"sortsynth/internal/isa"
	"sortsynth/internal/state"
	"sortsynth/internal/tables"
)

// fuzzMachines covers both ISAs, both suites, register counts up to the
// packed limit, and (via cmov n=5) a projection field too wide for the
// direct-indexed cut table, so both PermCountExceedsSet paths run.
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
// domain: register values at most n, tag below the goal-table size. The
// distance tables are only defined on that domain (exactly the states
// the search can reach), so out-of-range nibbles would index garbage
// rather than exercise the contract.
func clampAsg(m *state.Machine, a state.Asg) state.Asg {
	n := m.Set.N
	vals := m.Unpack(a)
	for i, v := range vals {
		vals[i] = v % (n + 1)
	}
	lt, gt := m.Flags(a)
	out := m.Pack(vals, lt, gt)
	return m.WithTag(out, m.Tag(a)%m.NumTags())
}

// FuzzApplyDistVsStep is the differential gate for the search's apply
// path. For a fuzzer-chosen machine, budget, and state, and for every
// instruction of the machine's set: ApplyRaw must equal the
// per-assignment Step loop bit for bit; ApplyDist must accept exactly
// when every stepped assignment's distance is within budget, and then
// return the Step loop's state; the batched goal/viability checks must
// equal their per-assignment forms on the input and every successor;
// and the stamped cut check must equal the linear-scan
// PermCountExceeds. Every input runs every instruction, so a fault in
// any one op's kernel shows on the first input that exercises it.
func FuzzApplyDistVsStep(f *testing.F) {
	luts := make([]*state.DistLUT, len(fuzzMachines))
	for i, m := range fuzzMachines {
		luts[i] = tables.For(m).DistLUT()
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
		// data[1] is unused: every instruction runs on every input.
		mi := int(data[0]) % len(fuzzMachines)
		m, lut := fuzzMachines[mi], luts[mi]
		budget := int(data[2]) % 24
		limit := int(data[3]) % 9
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
		want := make(state.State, len(s))
		for _, in := range m.Set.Instrs() {
			// ApplyRaw against the per-assignment Step loop, bit for bit.
			within := true
			for i, a := range s {
				want[i] = m.Step(a, in)
				if int(lut.Lookup(want[i])) > budget {
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

			// Fused apply+prune: the verdict is "every successor within
			// budget", and an accepted successor is the Step loop's state.
			gotD, ok := m.ApplyDist(nil, s, in, lut, budget)
			if ok != within {
				t.Fatalf("%v %s budget=%d: ApplyDist ok=%v, Step distances within budget=%v",
					m.Set, in.Format(m.Set.N), budget, ok, within)
			}
			if ok {
				for i := range want {
					if gotD[i] != want[i] {
						t.Fatalf("%v %s: ApplyDist asg[%d]=%08x, Step %08x",
							m.Set, in.Format(m.Set.N), i, gotD[i], want[i])
					}
				}
			}
			// The exact threshold per assignment: a one-assignment state
			// whose successor has finite distance d passes at budget d,
			// with the Step successor, and fails at d−1. Random states
			// rarely have every successor in budget, so this is what
			// reaches each op's successor on most inputs.
			for i, a := range s {
				d := int(lut.Lookup(want[i]))
				if d >= tables.Infinite-1 {
					continue
				}
				got, ok := m.ApplyDist(nil, s[i:i+1], in, lut, d)
				if !ok || got[0] != want[i] {
					t.Fatalf("%v %s asg=%08x budget=%d: ApplyDist (%08x, ok=%v), Step %08x",
						m.Set, in.Format(m.Set.N), a, d, got[0], ok, want[i])
				}
				if d == 0 {
					continue
				}
				if _, ok := m.ApplyDist(nil, s[i:i+1], in, lut, d-1); ok {
					t.Fatalf("%v %s asg=%08x: ApplyDist accepts at budget %d a successor of distance %d",
						m.Set, in.Format(m.Set.N), a, d-1, d)
				}
			}
			checkPredicates(t, m, want)
		}

		// The §3.5 cut's stamped projection set against the linear scan.
		var ps state.ProjSet
		if gotSet, wantScan := m.PermCountExceedsSet(s, limit, &ps), m.PermCountExceeds(s, limit); gotSet != wantScan {
			t.Fatalf("%v limit=%d: PermCountExceedsSet=%v, PermCountExceeds=%v on %v",
				m.Set, limit, gotSet, wantScan, s)
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
