package enum

import (
	"testing"

	"sortsynth/internal/cp"
	"sortsynth/internal/isa"
	"sortsynth/internal/state"
)

// bruteForceCount enumerates every program of exactly the given length
// over the legal instruction set and counts the ones that sort all
// permutations — the ground truth for the all-solutions path-DAG
// machinery.
func bruteForceCount(set *isa.Set, length int) int64 {
	m := state.NewMachine(set)
	instrs := set.Instrs()
	var count int64
	var rec func(depth int, s state.State)
	rec = func(depth int, s state.State) {
		if depth == length {
			if m.AllSorted(s) {
				count++
			}
			return
		}
		for _, in := range instrs {
			rec(depth+1, m.Apply(nil, s, in))
		}
	}
	rec(0, m.Initial().Clone())
	return count
}

func TestAllSolutionsMatchesBruteForceN2(t *testing.T) {
	// 21 instructions, length 4: 194,481 programs enumerated explicitly.
	set := isa.NewCmov(2, 1)
	want := bruteForceCount(set, 4)
	if want == 0 {
		t.Fatal("brute force found no solutions")
	}

	opt := ConfigAllSolutions()
	opt.MaxLen = 4
	res := Run(set, opt)
	if res.Length != 4 {
		t.Fatalf("length = %d", res.Length)
	}
	if res.SolutionCount != want {
		t.Errorf("path-DAG count = %d, brute force = %d", res.SolutionCount, want)
	}
	if int64(len(res.Programs)) != want {
		t.Errorf("materialized %d programs, want %d", len(res.Programs), want)
	}
	// Programs must be pairwise distinct.
	seen := map[string]bool{}
	for _, p := range res.Programs {
		k := p.FormatInline(2)
		if seen[k] {
			t.Fatalf("duplicate program enumerated: %s", k)
		}
		seen[k] = true
	}
	t.Logf("n=2: %d optimal programs (brute force confirmed)", want)
}

func TestAllSolutionsMatchesBruteForceMinMaxN2(t *testing.T) {
	set := isa.NewMinMax(2, 1)
	want := bruteForceCount(set, 3)
	opt := ConfigAllSolutions()
	opt.MaxLen = 3
	res := Run(set, opt)
	if res.Length != 3 || res.SolutionCount != want {
		t.Errorf("minmax: length=%d count=%d, brute force=%d", res.Length, res.SolutionCount, want)
	}
}

// TestCutMatrixEnumeratesSortingPrograms runs the n=3 all-solutions
// enumeration under every cut mode and checks that each run yields a
// duplicate-free program set of the reported size in which every
// program sorts. The cut cases matter most: the k-cut compares each
// state against the level's best permutation count, so a stale cut
// reference would drop or corrupt path-DAG edges.
func TestCutMatrixEnumeratesSortingPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	set := isa.NewCmov(3, 1)
	cuts := []struct {
		name string
		cut  CutMode
		k    float64
	}{
		{"nocut", CutNone, 0},
		{"k=2", CutFactor, 2},
		{"k=1.5", CutFactor, 1.5},
		{"k=1", CutFactor, 1},
	}
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) {
			opt := ConfigAllSolutions()
			opt.MaxLen = 11
			opt.Cut, opt.CutK = tc.cut, tc.k

			res := Run(set, opt)
			if res.Err != nil || res.Length != 11 {
				t.Fatalf("length=%d err=%v", res.Length, res.Err)
			}
			if int64(len(res.Programs)) != res.SolutionCount {
				t.Fatalf("enumerated %d programs, SolutionCount %d", len(res.Programs), res.SolutionCount)
			}
			seen := make(map[string]bool, len(res.Programs))
			for _, p := range res.Programs {
				k := p.FormatInline(set.N)
				if seen[k] {
					t.Fatalf("enumerated duplicate %s", k)
				}
				seen[k] = true
				crosscheckSorts(t, set, p)
			}
			t.Logf("%s: %d distinct sorting programs", tc.name, res.SolutionCount)
		})
	}
}

// crosscheckSorts verifies p on every permutation of 1..n.
func crosscheckSorts(t *testing.T, set *isa.Set, p isa.Program) {
	t.Helper()
	m := state.NewMachine(set)
	s := m.Initial().Clone()
	for _, in := range p {
		s = m.Apply(nil, s, in)
	}
	if !m.AllSorted(s) {
		t.Fatalf("enumerated program does not sort: %s", p.FormatInline(set.N))
	}
}

func TestCPEnumerationAgreesWithSearchN2(t *testing.T) {
	// A third, independent implementation: the CP model restricted to the
	// same legal instruction space (no self-ops, cmp argument order) must
	// count the same optimal programs.
	set := isa.NewCmov(2, 1)
	opt := ConfigAllSolutions()
	opt.MaxLen = 4
	res := Run(set, opt)

	cpRes := cp.EnumerateAll(set, cp.Options{
		Length: 4, Goal: cp.GoalAscCounts0,
		NoSelfOps: true, CmpSymmetry: true,
	}, 0)
	if !cpRes.Exhausted {
		t.Fatal("CP enumeration not exhaustive")
	}
	if cpRes.Solutions != res.SolutionCount {
		t.Errorf("CP counts %d solutions, search counts %d", cpRes.Solutions, res.SolutionCount)
	}
}
