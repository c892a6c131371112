package state_test

import (
	"testing"

	"sortsynth/internal/isa"
	"sortsynth/internal/state"
	"sortsynth/internal/tables"
)

// External test package: the ApplyDist benchmark needs the distance LUT
// from internal/tables, which imports state.

var (
	sinkKey   state.Key128
	sinkBool  bool
	sinkState state.State
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

func BenchmarkApplyDist(b *testing.B) {
	set := isa.NewCmov(4, 1)
	m := state.NewMachine(set)
	tab := tables.For(m)
	lut := tab.DistLUT()
	instrs := set.Instrs()
	s := m.Initial()
	var dst state.State
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = m.ApplyDist(dst, s, instrs[i%len(instrs)], lut, 20)
	}
	sinkState = dst
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

// BenchmarkPermCountExceeds{Linear,Set} document the cut pre-check the
// search engines moved from the O(len·count) linear scan to the
// epoch-stamped projection set.
func BenchmarkPermCountExceedsLinear(b *testing.B) {
	m := state.NewMachine(isa.NewCmov(4, 1))
	s := m.Initial()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = m.PermCountExceeds(s, 12)
	}
}

func BenchmarkPermCountExceedsSet(b *testing.B) {
	m := state.NewMachine(isa.NewCmov(4, 1))
	s := m.Initial()
	var ps state.ProjSet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = m.PermCountExceedsSet(s, 12, &ps)
	}
}

// BenchmarkPermCountExceedsSetHashed measures the open-addressing
// fallback on a machine whose projection field is too wide for the
// direct-indexed stamp table (cmov n=5: BenchmarkPermCountExceedsSet
// above exercises the direct path on n=4).
func BenchmarkPermCountExceedsSetHashed(b *testing.B) {
	m := state.NewMachine(isa.NewCmov(5, 2))
	s := m.Initial()
	var ps state.ProjSet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = m.PermCountExceedsSet(s, 12, &ps)
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
	lut := tables.For(m).DistLUT()
	in := opInstr(set, isa.Cmovl)
	s := m.Initial()
	dst := make(state.State, len(s))
	var ps state.ProjSet
	m.PermCountExceedsSet(s, 12, &ps) // warm the stamp table
	checks := []struct {
		name string
		fn   func()
	}{
		{"ApplyRaw", func() { dst = m.ApplyRaw(dst, s, in) }},
		{"ApplyDist", func() { dst, _ = m.ApplyDist(dst, s, in, lut, 20) }},
		{"PermCountExceedsSet", func() { sinkBool = m.PermCountExceedsSet(s, 12, &ps) }},
	}
	for _, c := range checks {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %.1f times per run in steady state", c.name, n)
		}
	}
}
