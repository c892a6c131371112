package state_test

import (
	"encoding/binary"
	"slices"
	"testing"

	"sortsynth/internal/isa"
	"sortsynth/internal/state"
)

// domain lists every assignment of m that internal/tables covers:
// register values 0..n, every goal tag, and the flag codes cmp can
// leave (0..2 with flags, 0 without).
func domain(m *state.Machine) []state.Asg {
	flags := []state.Asg{0}
	if m.Set.HasFlags() {
		flags = []state.Asg{0, 1, 2}
	}
	var out []state.Asg
	vals := make([]int, m.Set.Regs())
	for {
		a := m.Pack(vals, false, false)
		for tag := 0; tag < m.NumTags(); tag++ {
			for _, f := range flags {
				out = append(out, m.WithTag(a, tag)|f)
			}
		}
		i := 0
		for ; i < len(vals); i++ {
			if vals[i]++; vals[i] <= m.Set.N {
				break
			}
			vals[i] = 0
		}
		if i == len(vals) {
			return out
		}
	}
}

// unstepped collects what Unstep yields, in yield order.
func unstepped(m *state.Machine, b state.Asg, in isa.Instr) []state.Asg {
	var got []state.Asg
	m.Unstep(b, in, func(a state.Asg) { got = append(got, a) })
	return got
}

// TestUnstepInvertsStep checks Unstep exhaustively: on cmov and min/max
// n=2..3 with one and two scratch registers, under both suites, for
// every domain assignment b and every instruction, Unstep(b, in) yields
// exactly the domain assignments a with Step(a, in) == b, each once.
func TestUnstepInvertsStep(t *testing.T) {
	for _, suite := range []state.Suite{state.SuitePermutations, state.SuiteWeakOrders} {
		for _, kind := range []isa.Kind{isa.KindCmov, isa.KindMinMax} {
			for n := 2; n <= 3; n++ {
				for sc := 1; sc <= 2; sc++ {
					m := state.NewMachineSuite(isa.New(kind, n, sc), suite)
					asgs := domain(m)
					for _, in := range m.Set.Instrs() {
						want := map[state.Asg][]state.Asg{}
						for _, a := range asgs {
							b := m.Step(a, in)
							want[b] = append(want[b], a)
						}
						for _, b := range asgs {
							got := unstepped(m, b, in)
							slices.Sort(got)
							if w := want[b]; !slices.Equal(got, w) {
								t.Fatalf("%v %v %s: Unstep(%v, flags %d) = %x, want %x",
									m.Set, suite, in.Format(n), m.Unpack(b), b&3, got, w)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzUnstep checks Unstep on a fuzzer-chosen machine, assignment and
// instruction against brute force. Step changes only the destination
// register and the flags, so every predecessor of b agrees with b
// everywhere else: the candidates are b with each destination value and
// flag code, and Unstep must yield exactly those that step to b, once
// each, in the domain.
func FuzzUnstep(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 3, 0x21, 0x43, 0x00, 0x00})
	f.Add([]byte{4, 9, 0x55, 0x12, 0x03, 0x00})
	f.Add([]byte{6, 2, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		m := fuzzMachines[int(data[0])%len(fuzzMachines)]
		instrs := m.Set.Instrs()
		in := instrs[int(data[1])%len(instrs)]
		b := clampAsg(m, state.Asg(binary.LittleEndian.Uint32(data[2:6])))
		flags := []state.Asg{0}
		if m.Set.HasFlags() {
			flags = []state.Asg{0, 1, 2}
		} else {
			b &^= 3 // no flag code but 0 is in a flagless domain
		}

		got := unstepped(m, b, in)
		slices.Sort(got)
		var want []state.Asg
		for v := 0; v <= m.Set.N; v++ {
			regs := m.Unpack(b)
			regs[in.Dst] = v
			for _, f := range flags {
				a := m.WithTag(m.Pack(regs, false, false), m.Tag(b)) | f
				if m.Step(a, in) == b {
					want = append(want, a)
				}
			}
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%v %s: Unstep(%v, flags %d) = %x, want %x", m.Set, in.Format(m.Set.N), m.Unpack(b), b&3, got, want)
		}
	})
}
