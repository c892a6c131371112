package state_test

import (
	"encoding/binary"
	"testing"

	"sortsynth/internal/isa"
	"sortsynth/internal/state"
)

// erasedKey is an assignment's permutation projection with one sorted
// register left out, spelled out value by value: the reference for
// ErasedCountExceeds, built without the packed layout's shifts.
type erasedKey struct {
	tag  int
	vals [8]int
}

// erasedCount counts the distinct projections of s once register r is
// erased, with a map. A scratch r erases nothing in the projection.
func erasedCount(m *state.Machine, s state.State, r int) int {
	seen := map[erasedKey]bool{}
	for _, a := range s {
		k := erasedKey{tag: m.Tag(a)}
		for i := 0; i < m.Set.N; i++ {
			if i != r {
				k.vals[i] = m.Reg(a, i)
			}
		}
		seen[k] = true
	}
	return len(seen)
}

// erasedMachines are fuzzMachines plus cmov n=5 over weak orders, whose
// erased keys (20 bits) are still too wide for the direct-indexed table,
// so both ErasedCountExceeds paths run.
var erasedMachines = append(fuzzMachines[:len(fuzzMachines):len(fuzzMachines)],
	state.NewMachineSuite(isa.NewCmov(5, 1), state.SuiteWeakOrders))

// FuzzErasedBound is the soundness gate of the search's pre-apply cut.
// For a fuzzer-chosen machine, limit and raw state (duplicates and any
// order, up to 64 assignments): ErasedCountExceeds must agree with the
// map-based erased count at every register, and for every instruction
// the successor's distinct projection count must be at least the
// parent's erased at the instruction's destination — so a true
// ErasedCountExceeds(parent, dst, limit) implies PermCount(child) >
// limit. cmp writes no register: erasing its destination only weakens
// the bound, which must still hold.
func FuzzErasedBound(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 0x21, 0x43, 0x00, 0x00, 0x12, 0x34, 0x00, 0x00})
	f.Add([]byte("\x03cmov n=5 hashed projection set, erased bound"))
	f.Add([]byte("\x06weak-order cmov erased bound with ties"))
	f.Add([]byte("\x08cmov n=5 weak orders: hashed erased keys with ties"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := erasedMachines[int(data[0])%len(erasedMachines)]
		limit := int(data[1]) % 70
		data = data[2:]
		s := make(state.State, min(len(data)/4, 64))
		for i := range s {
			s[i] = clampAsg(m, state.Asg(binary.LittleEndian.Uint32(data[i*4:])))
		}

		var ps state.ProjSet
		for r := 0; r < m.Set.Regs(); r++ {
			want := erasedCount(m, s, r) > limit
			if got := m.ErasedCountExceeds(s, r, limit, &ps); got != want {
				t.Fatalf("%v %v r=%d limit=%d: ErasedCountExceeds=%v, map count %d on %v",
					m.Set, m.Suite, r, limit, got, erasedCount(m, s, r), s)
			}
		}
		for _, in := range m.Set.Instrs() {
			child := m.Apply(nil, s, in)
			pc, bound := m.PermCount(child), erasedCount(m, s, int(in.Dst))
			if pc < bound {
				t.Fatalf("%v %v %s: child has %d distinct projections, below the parent's erased count %d on %v",
					m.Set, m.Suite, in.Format(m.Set.N), pc, bound, s)
			}
			if m.ErasedCountExceeds(s, int(in.Dst), limit, &ps) && pc <= limit {
				t.Fatalf("%v %v %s limit=%d: erased bound claims the child, which has %d projections, on %v",
					m.Set, m.Suite, in.Format(m.Set.N), limit, pc, s)
			}
		}
	})
}
