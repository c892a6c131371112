package state_test

// Differential fuzzing of the SWAR execution layer against the scalar
// oracle. The in-package tests (swar_test.go) pin the contract on random
// states; this target lets the fuzzer steer the packed bit patterns,
// machine choice, instruction choice, and prune budget, and — living in
// the external test package — checks the fused ApplyDistSWAR kernel
// against ApplyDist with the *real* distance tables from
// internal/tables, incremental parent indices included.

import (
	"encoding/binary"
	"testing"

	"sortsynth/internal/isa"
	"sortsynth/internal/state"
	"sortsynth/internal/tables"
)

// fuzzMachines mirrors swarTestMachines: both ISAs, both suites,
// register counts up to the packed limit, and (via cmov n=5) a
// projection field too wide for the direct-indexed cut table, so both
// PermCountExceedsSet paths run.
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

// FuzzSWARvsScalarStep is the differential gate the SWAR layer's
// bit-for-bit claim rests on: for fuzzer-chosen machine, instruction,
// budget, and state, every SWAR entry point must agree exactly with its
// scalar oracle — ApplySWAR with the per-Asg Step loop, the batched
// goal/viability checks with their scalar forms, ApplyDistSWAR's result
// and verdicts with ApplyDist + AllSorted, and the stamped cut check
// with the linear-scan PermCountExceeds.
func FuzzSWARvsScalarStep(f *testing.F) {
	luts := make([]*state.DistLUT, len(fuzzMachines))
	for i, m := range fuzzMachines {
		luts[i] = tables.For(m).DistLUT()
	}

	f.Add([]byte{})
	f.Add([]byte{0, 0, 4, 1})
	f.Add([]byte{2, 7, 9, 3, 0x21, 0x43, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte("swar-vs-scalar differential seed"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		mi := int(data[0]) % len(fuzzMachines)
		m, lut := fuzzMachines[mi], luts[mi]
		instrs := m.Set.Instrs()
		in := instrs[int(data[1])%len(instrs)]
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

		// ApplySWAR against the per-assignment Step loop, bit for bit.
		want := make(state.State, len(s))
		for i, a := range s {
			want[i] = m.Step(a, in)
		}
		got := m.ApplySWAR(nil, s, in)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v %s asg[%d]=%08x: ApplySWAR %08x, Step %08x",
					m.Set, in.Format(m.Set.N), i, s[i], got[i], want[i])
			}
		}

		// Batched predicates against their scalar forms, on both the
		// input and the successor state.
		for _, x := range []state.State{s, want} {
			if m.AllSortedSWAR(x) != m.AllSorted(x) {
				t.Fatalf("%v: AllSortedSWAR diverges on %v", m.Set, x)
			}
			if m.AllViableSWAR(x) != m.AllViable(x) {
				t.Fatalf("%v: AllViableSWAR diverges on %v", m.Set, x)
			}
		}
		if m.NumTags() == 1 {
			for i := 0; i+1 < len(s); i += 2 {
				lanes := m.SortedLanes(uint64(s[i]) | uint64(s[i+1])<<32)
				if lanes&1 != 0 != m.Sorted(s[i]) || lanes>>32&1 != 0 != m.Sorted(s[i+1]) {
					t.Fatalf("%v: SortedLanes %x for %08x,%08x", m.Set, lanes, s[i], s[i+1])
				}
			}
		}

		// Fused apply+prune: ApplyDistSWAR with incremental parent
		// indices must reproduce ApplyDist's state and verdict, and its
		// batched sorted bit must equal AllSorted of the successor.
		pidx := make([]uint32, len(s))
		for i, a := range s {
			pidx[i] = lut.Index(a)
		}
		gotD, sortedD, okD := m.ApplyDistSWAR(nil, s, pidx, in, lut, budget)
		wantD, okS := m.ApplyDist(nil, s, in, lut, budget)
		if okD != okS {
			t.Fatalf("%v %s budget=%d: ApplyDistSWAR ok=%v, ApplyDist ok=%v",
				m.Set, in.Format(m.Set.N), budget, okD, okS)
		}
		if okD {
			for i := range wantD {
				if gotD[i] != wantD[i] || gotD[i] != want[i] {
					t.Fatalf("%v %s: fused asg[%d] swar=%08x scalar=%08x step=%08x",
						m.Set, in.Format(m.Set.N), i, gotD[i], wantD[i], want[i])
				}
			}
			if sortedD != m.AllSorted(gotD) {
				t.Fatalf("%v %s: ApplyDistSWAR sorted=%v, AllSorted=%v",
					m.Set, in.Format(m.Set.N), sortedD, m.AllSorted(gotD))
			}
		}

		// The §3.5 cut's stamped projection set against the linear scan.
		var ps state.ProjSet
		if gotSet, wantScan := m.PermCountExceedsSet(s, limit, &ps), m.PermCountExceeds(s, limit); gotSet != wantScan {
			t.Fatalf("%v limit=%d: PermCountExceedsSet=%v, PermCountExceeds=%v on %v",
				m.Set, limit, gotSet, wantScan, s)
		}
	})
}
