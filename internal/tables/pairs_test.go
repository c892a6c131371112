package tables

import (
	"strings"
	"sync"
	"testing"

	"sortsynth/internal/isa"
	"sortsynth/internal/state"
)

// pairMachines are the machines the pair-table oracle covers: cmov and
// min/max, n = 2..3, under both test suites.
func pairMachines() []*state.Machine {
	var ms []*state.Machine
	for _, suite := range []state.Suite{state.SuitePermutations, state.SuiteWeakOrders} {
		for n := 2; n <= 3; n++ {
			ms = append(ms,
				state.NewMachineSuite(isa.NewCmov(n, 1), suite),
				state.NewMachineSuite(isa.NewMinMax(n, 1), suite))
		}
	}
	return ms
}

// refPairs is the reference model of the pair table: a forward
// fixpoint over every unordered pair of viable assignments, relaxing
// D(a, b) = 1 + min over instructions of D(step a, step b) until
// nothing changes. It numbers the assignments itself, in the order of
// asgs, and reaches successors through a map, not through the table's
// index or its predecessor lists. succ[i*ni+k] is the number of the
// successor of asgs[i] under instruction k, or -1 if it is dead.
func refPairs(m *state.Machine, asgs []state.Asg) (d []uint8, succ []int32) {
	v, ni := len(asgs), len(m.Set.Instrs())
	ids := make(map[state.Asg]int32, v)
	for i, a := range asgs {
		ids[a] = int32(i)
	}
	succ = make([]int32, v*ni)
	for i, a := range asgs {
		for k, in := range m.Set.Instrs() {
			c, ok := ids[m.Step(a, in)]
			if !ok {
				c = -1
			}
			succ[i*ni+k] = c
		}
	}
	d = make([]uint8, v*v)
	for i, a := range asgs {
		for j, b := range asgs {
			d[i*v+j] = Infinite
			if m.Sorted(a) && m.Sorted(b) {
				d[i*v+j] = 0
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := range asgs {
			si := succ[i*ni:][:ni]
			for j := i; j < v; j++ {
				best := d[i*v+j]
				for k, x := range si {
					y := succ[j*ni+k]
					if x < 0 || y < 0 {
						continue
					}
					if dxy := d[int(x)*v+int(y)]; dxy < Infinite && dxy+1 < best {
						best = dxy + 1
					}
				}
				if best < d[i*v+j] {
					d[i*v+j], d[j*v+i] = best, best
					changed = true
				}
			}
		}
	}
	return d, succ
}

// TestPairsMatchReference checks the whole pair table of every
// pairMachines machine against refPairs, and its defining properties:
// symmetry, D(a, a) = Dist(a), D(a, b) ≥ max(Dist(a), Dist(b)), and
// D(a, b) ≤ 1 + D(step a, step b) for every instruction that keeps both
// viable.
func TestPairsMatchReference(t *testing.T) {
	for _, m := range pairMachines() {
		tab := For(m)
		p := tab.Pairs()
		if p == nil {
			t.Fatalf("%v %v: no pair table", m.Set, m.Suite)
		}
		var asgs []state.Asg
		for _, a := range assignments(m) {
			if tab.Dist(a) != Infinite {
				asgs = append(asgs, a)
			}
		}
		if len(asgs) != p.v {
			t.Fatalf("%v %v: %d viable assignments, table has %d", m.Set, m.Suite, len(asgs), p.v)
		}
		v, ni := len(asgs), len(m.Set.Instrs())
		want, succ := refPairs(m, asgs)
		// got is the table in the reference's numbering; the exported
		// lookup must read the same entries.
		got := make([]uint8, v*v)
		dist := make([]int, v)
		for i, a := range asgs {
			dist[i] = tab.Dist(a)
			row := p.d[int(p.id[tab.index(a)])*v:]
			for j, b := range asgs {
				got[i*v+j] = row[p.id[tab.index(b)]]
			}
			if d := p.Dist(a, asgs[(i*7)%v]); d != int(got[i*v+(i*7)%v]) {
				t.Fatalf("%v %v: Pairs.Dist %d, table entry %d", m.Set, m.Suite, d, got[i*v+(i*7)%v])
			}
		}
		for i, a := range asgs {
			for j, b := range asgs {
				g := got[i*v+j]
				switch {
				case g != want[i*v+j]:
					t.Fatalf("%v %v: D(%v, %v) = %d, reference %d", m.Set, m.Suite, m.Unpack(a), m.Unpack(b), g, want[i*v+j])
				case g != got[j*v+i]:
					t.Fatalf("%v %v: D(%v, %v) = %d but D(b, a) = %d", m.Set, m.Suite, m.Unpack(a), m.Unpack(b), g, got[j*v+i])
				case i == j && int(g) != dist[i]:
					t.Fatalf("%v %v: D(a, a) = %d, Dist(a) = %d for %v", m.Set, m.Suite, g, dist[i], m.Unpack(a))
				case int(g) < max(dist[i], dist[j]):
					t.Fatalf("%v %v: D(%v, %v) = %d below the single distances %d, %d", m.Set, m.Suite, m.Unpack(a), m.Unpack(b), g, dist[i], dist[j])
				}
				if j < i {
					continue // symmetric: the step property of (b, a) is that of (a, b)
				}
				for k := range ni {
					x, y := succ[i*ni+k], succ[j*ni+k]
					if x >= 0 && y >= 0 && int(g) > 1+int(got[int(x)*v+int(y)]) {
						t.Fatalf("%v %v: D(%v, %v) = %d exceeds 1 + D(step) = %d under %s", m.Set, m.Suite,
							m.Unpack(a), m.Unpack(b), g, 1+int(got[int(x)*v+int(y)]), m.Set.Instrs()[k].Format(m.Set.N))
					}
				}
			}
		}
	}
}

// TestPairBoundAtRoot pins the pair bound of the initial state, against
// the single-assignment bound it tightens.
func TestPairBoundAtRoot(t *testing.T) {
	for _, tc := range []struct {
		set        *isa.Set
		pair, dist int
	}{
		{isa.NewCmov(3, 1), 8, 4},
		{isa.NewMinMax(4, 1), 10, 6},
		{isa.NewCmov(4, 1), 10, 6},
	} {
		m := state.NewMachine(tc.set)
		tab := For(m)
		if got := tab.Pairs().Max(m.Initial()); got != tc.pair {
			t.Errorf("%v: root pair bound %d, want %d", tc.set, got, tc.pair)
		}
		if got := tab.MaxDist(m.Initial()); got != tc.dist {
			t.Errorf("%v: root MaxDist %d, want %d", tc.set, got, tc.dist)
		}
	}
}

// TestPairTableCap pins which machines get a table under the V² ≤ 2^24
// cap: minmax n=5 (V = 2,520) does, cmov n=4 weak orders (V = 26,013)
// does not.
func TestPairTableCap(t *testing.T) {
	mm5 := state.NewMachine(isa.NewMinMax(5, 1))
	if p := For(mm5).Pairs(); p == nil || p.v != 2520 {
		t.Errorf("minmax n=5: pair table %v, want one over 2520 assignments", p != nil)
	}
	cm4w := state.NewMachineSuite(isa.NewCmov(4, 1), state.SuiteWeakOrders)
	if p := For(cm4w).Pairs(); p != nil {
		t.Errorf("cmov n=4 weak orders: pair table over %d assignments, want none above the cap", p.v)
	}
}

// shippedMachines are the machines sortsynth synthesizes and bakes
// kernels for: cmov and min/max with one scratch register, n = 2..5,
// under both test suites.
func shippedMachines() []*state.Machine {
	var ms []*state.Machine
	for _, suite := range []state.Suite{state.SuitePermutations, state.SuiteWeakOrders} {
		for n := 2; n <= 5; n++ {
			ms = append(ms,
				state.NewMachineSuite(isa.NewCmov(n, 1), suite),
				state.NewMachineSuite(isa.NewMinMax(n, 1), suite))
		}
	}
	return ms
}

// TestStepsStayInFlagDomain checks the premise of the tables' domain:
// stepping any assignment with flag code 0..2 (lt and gt not both set)
// by any instruction never sets lt and gt together, so the search
// never leaves the domain the tables cover.
func TestStepsStayInFlagDomain(t *testing.T) {
	for _, m := range shippedMachines() {
		instrs := m.Set.Instrs()
		for _, a := range assignments(m) {
			for _, in := range instrs {
				if b := m.Step(a, in); b&3 == 3 {
					t.Fatalf("%v %v: %s steps %#x to %#x, with lt and gt both set", m.Set, m.Suite, in.Format(m.Set.N), uint32(a), uint32(b))
				}
			}
		}
	}
}

// TestPairLookupOutsideDomainPanics checks that the pair lookup refuses
// assignments outside its domain instead of reading another entry.
func TestPairLookupOutsideDomainPanics(t *testing.T) {
	m := state.NewMachine(isa.NewCmov(3, 1))
	p := For(m).Pairs()
	ok := m.Pack([]int{1, 2, 3, 0}, false, false)
	for name, a := range map[string]state.Asg{
		"lt and gt":     m.Pack([]int{1, 2, 3, 0}, true, true),
		"value above n": m.Pack([]int{1, 2, 4, 0}, false, false),
		"goal tag":      m.WithTag(ok, 1),
	} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "outside the table domain") {
					t.Errorf("%s: recovered %v, want a domain panic", name, r)
				}
			}()
			p.Dist(ok, a)
		}()
	}
	if got := p.Dist(ok, ok); got != 0 {
		t.Errorf("D(sorted, sorted) = %d, want 0", got)
	}
}

// TestPairsConcurrentFirstUse has several searches reach a machine's
// pair table at once, before it is built: each must see the one
// finished table.
func TestPairsConcurrentFirstUse(t *testing.T) {
	m := state.NewMachine(isa.NewCmov(3, 1))
	tab := build(m) // a table of its own, outside For's cache
	var wg sync.WaitGroup
	got := make([]*Pairs, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got[i] = tab.Pairs(); got[i].Max(m.Initial()) != 8 {
				t.Errorf("goroutine %d: root pair bound %d, want 8", i, got[i].Max(m.Initial()))
			}
		}()
	}
	wg.Wait()
	for i, p := range got {
		if p != got[0] {
			t.Errorf("goroutine %d got a different table", i)
		}
	}
}
