package state_test

import (
	"testing"

	"sortsynth/internal/isa"
	"sortsynth/internal/state"
	"sortsynth/internal/tables"
)

// External test package: the candidate-pass benchmark and alloc check
// need the distance tables from internal/tables, which imports state.

var (
	sinkKey   state.Key128
	sinkBool  bool
	sinkState state.State
	sinkMask  tables.Mask
)

func BenchmarkHashKey(b *testing.B) {
	m := state.NewMachine(isa.NewCmov(4, 1))
	s := m.Initial()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkKey = state.HashKey(s)
	}
}

// BenchmarkCandidates times the search's per-parent candidate pass (the
// guide and budget masks in one walk) on the full n=4 initial state.
func BenchmarkCandidates(b *testing.B) {
	m := state.NewMachine(isa.NewCmov(4, 1))
	tab := tables.For(m)
	s := m.Initial()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sinkMask = tab.Candidates(s, 19)
	}
}

// opInstr returns the first instruction of the set with the given op.
func opInstr(set *isa.Set, op isa.Op) isa.Instr {
	for _, in := range set.Instrs() {
		if in.Op == op {
			return in
		}
	}
	panic("no instruction with requested op")
}

// BenchmarkApplyPerOp times ApplyRaw for every instruction class, on
// the full n=4 initial state (24 assignments — the state size the hot
// search loops actually see).
func BenchmarkApplyPerOp(b *testing.B) {
	cm := state.NewMachine(isa.NewCmov(4, 1))
	mm := state.NewMachine(isa.NewMinMax(4, 1))
	cases := []struct {
		name string
		m    *state.Machine
		op   isa.Op
	}{
		{"mov", cm, isa.Mov},
		{"cmp", cm, isa.Cmp},
		{"cmovl", cm, isa.Cmovl},
		{"cmovg", cm, isa.Cmovg},
		{"min", mm, isa.Min},
		{"max", mm, isa.Max},
	}
	for _, c := range cases {
		in := opInstr(c.m.Set, c.op)
		s := c.m.Initial()
		b.Run(c.name, func(b *testing.B) {
			dst := make(state.State, len(s))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = c.m.ApplyRaw(dst, s, in)
			}
			sinkState = dst
		})
	}
}

// sortedState builds a k-assignment state whose every entry satisfies
// the machine's goal, by scanning the packed domain for a sorted
// assignment. Worst case for the goal checks: no early exit fires.
func sortedState(m *state.Machine, k int) state.State {
	lim := state.Asg(1) << uint(m.PackedBits())
	for a := state.Asg(0); a < lim; a++ {
		if m.Sorted(a) {
			s := make(state.State, k)
			for i := range s {
				s[i] = a
			}
			return s
		}
	}
	panic("no sorted assignment in packed domain")
}

// BenchmarkAllSorted and BenchmarkAllViable time the batched
// goal/viability checks on full-scan inputs: an all-sorted state for the
// goal check (an unsorted entry would let the loop exit early) and the
// all-viable initial state for the viability check.
func BenchmarkAllSorted(b *testing.B) {
	m := state.NewMachine(isa.NewCmov(4, 1))
	s := sortedState(m, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = m.AllSorted(s)
	}
}

func BenchmarkAllViable(b *testing.B) {
	m := state.NewMachine(isa.NewCmov(4, 1))
	s := m.Initial()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = m.AllViable(s)
	}
}

// BenchmarkErasedCountExceeds measures the search's pre-apply cut test
// on the direct-indexed stamp table (cmov n=4, a sorted register's
// erased keys).
func BenchmarkErasedCountExceeds(b *testing.B) {
	m := state.NewMachine(isa.NewCmov(4, 1))
	s := m.Initial()
	var ps state.ProjSet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = m.ErasedCountExceeds(s, 1, 12, &ps)
	}
}

// BenchmarkErasedCountExceedsHashed measures the open-addressing
// fallback on a machine whose erased keys are too wide for the
// direct-indexed stamp table (cmov n=5 over weak orders).
func BenchmarkErasedCountExceedsHashed(b *testing.B) {
	m := state.NewMachineSuite(isa.NewCmov(5, 1), state.SuiteWeakOrders)
	s := m.Initial()
	var ps state.ProjSet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = m.ErasedCountExceeds(s, 1, 12, &ps)
	}
}

// TestHotPathsAllocFree pins the zero-allocation contract of the
// steady-state inner-loop kernels: with scratch warm (dst at capacity,
// stamp tables built), none of them may touch the heap. A regression
// here turns into allocator time inside the per-candidate search loop,
// which the -benchmem numbers on the benchmarks above would show only
// after the fact.
func TestHotPathsAllocFree(t *testing.T) {
	set := isa.NewCmov(4, 1)
	m := state.NewMachine(set)
	tab := tables.For(m)
	in := opInstr(set, isa.Cmovl)
	s := m.Initial()
	dst := make(state.State, len(s))
	var ps state.ProjSet
	m.ErasedCountExceeds(s, 1, 12, &ps) // warm the stamp table
	checks := []struct {
		name string
		fn   func()
	}{
		{"ApplyRaw", func() { dst = m.ApplyRaw(dst, s, in) }},
		{"Candidates", func() { _, sinkMask = tab.Candidates(s, 19) }},
		{"ErasedCountExceeds", func() { sinkBool = m.ErasedCountExceeds(s, 1, 12, &ps) }},
	}
	for _, c := range checks {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %.1f times per run in steady state", c.name, n)
		}
	}
}
