package state_test

import (
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

// TestStepIsMovOrNoop checks the lemma the distance-table search rests
// on: on one assignment every instruction acts as one mov or as a
// no-op. On cmov and min/max n=2..3 with zero to two scratch registers,
// under both suites, for every domain assignment a and instruction, the
// registers and goal tag of Step(a, in) equal a's, or a's with dst set
// to a[src]; only the flags may differ otherwise.
func TestStepIsMovOrNoop(t *testing.T) {
	const flags = 3 // the lt and gt bits
	for _, suite := range []state.Suite{state.SuitePermutations, state.SuiteWeakOrders} {
		for _, kind := range []isa.Kind{isa.KindCmov, isa.KindMinMax} {
			for n := 2; n <= 3; n++ {
				for sc := 0; sc <= 2; sc++ {
					m := state.NewMachineSuite(isa.New(kind, n, sc), suite)
					for _, a := range domain(m) {
						for _, in := range m.Set.Instrs() {
							regs := m.Unpack(a)
							regs[in.Dst] = regs[in.Src]
							mov := m.WithTag(m.Pack(regs, false, false), m.Tag(a))
							if got := m.Step(a, in) &^ flags; got != a&^flags && got != mov {
								t.Fatalf("%v %v %s: Step(%v) = %v, neither a no-op nor a mov",
									m.Set, suite, in.Format(n), m.Unpack(a), m.Unpack(got))
							}
						}
					}
				}
			}
		}
	}
}
