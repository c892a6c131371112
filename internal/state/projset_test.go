package state_test

import (
	"math/rand"
	"testing"

	"sortsynth/internal/isa"
	"sortsynth/internal/state"
)

// TestErasedCountExceedsMatchesMap checks ErasedCountExceeds at every
// register against the map-based erasedCount on random raw states:
// cmov n=3 over both suites (the direct-indexed table) and cmov n=5
// over weak orders (the hashed table), including the early-out
// thresholds (limit ≥ len(s), limit ≥ 64) and epoch reuse of one
// ProjSet across many calls. States hold at most 64 assignments, so the
// count never exceeds a limit of 64 or more and the early outs agree
// with the map.
func TestErasedCountExceedsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []*state.Machine{
		state.NewMachine(isa.NewCmov(3, 1)),
		state.NewMachineSuite(isa.NewCmov(3, 1), state.SuiteWeakOrders),
		state.NewMachineSuite(isa.NewCmov(5, 1), state.SuiteWeakOrders),
	} {
		var ps state.ProjSet
		base := m.Initial()
		for trial := 0; trial < 2000; trial++ {
			// Random raw (non-canonical) states: duplicates and arbitrary
			// order, drawn from reachable assignments with mutated scratch.
			s := make(state.State, 1+rng.Intn(min(2*len(base), 64)))
			for i := range s {
				a := base[rng.Intn(len(base))]
				if rng.Intn(2) == 0 {
					a ^= state.Asg(rng.Intn(16)) << 2 // perturb the low scratch nibble
				}
				s[i] = a
			}
			limit := rng.Intn(70)
			for r := 0; r < m.Set.Regs(); r++ {
				want := erasedCount(m, s, r) > limit
				if got := m.ErasedCountExceeds(s, r, limit, &ps); got != want {
					t.Fatalf("%v %v trial %d r=%d: ErasedCountExceeds=%v, map count %d (len=%d limit=%d)",
						m.Set, m.Suite, trial, r, got, erasedCount(m, s, r), len(s), limit)
				}
			}
		}
	}
}

// TestProjSetEpochWraparound drives both stamp epochs across their wrap
// and checks every call against the map reference. The direct table's
// uint16 epoch wraps every 65,535 calls of a search on cmov n=3; the
// hashed table's uint32 epoch serves cmov n=5 over weak orders. Each
// register's keys are first stamped at epoch 1; a call at the epoch's
// maximum restamps one key; the wrapping call is back at epoch 1, so
// without the clear on wrap the stale stamps would read as already seen
// and undercount.
func TestProjSetEpochWraparound(t *testing.T) {
	for _, m := range []*state.Machine{
		state.NewMachine(isa.NewCmov(3, 1)),
		state.NewMachineSuite(isa.NewCmov(5, 1), state.SuiteWeakOrders),
	} {
		s := m.Initial()
		s = s[:min(len(s), 40)] // at most 40 keys, so limits stay under 64
		for r := 0; r < m.Set.Regs(); r++ {
			limit := erasedCount(m, s, r) - 1
			var ps state.ProjSet
			check := func(call string, s state.State, limit int) {
				t.Helper()
				want := erasedCount(m, s, r) > limit
				if got := m.ErasedCountExceeds(s, r, limit, &ps); got != want {
					t.Fatalf("%v %v r=%d %s: ErasedCountExceeds=%v, map count %d, limit %d",
						m.Set, m.Suite, r, call, got, erasedCount(m, s, r), limit)
				}
			}
			state.SetProjSetEpochs(&ps, 0, 0)
			check("at epoch 1", s, limit)
			state.SetProjSetEpochs(&ps, ^uint16(0)-1, ^uint32(0)-1)
			check("at the last epoch", s[:1], 0)
			check("across the wrap", s, limit)
			check("after the wrap", s, limit)
		}
	}
}
