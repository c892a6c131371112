package enum

import (
	"testing"

	"sortsynth/internal/isa"
	"sortsynth/internal/uarch"
	"sortsynth/internal/verify"
)

func TestParseObjective(t *testing.T) {
	cases := []struct {
		in   string
		want Objective
		ok   bool
	}{
		{"", ObjectiveShortest, true},
		{"shortest", ObjectiveShortest, true},
		{"fastest", ObjectiveFastest, true},
		{"balanced", ObjectiveBalanced, true},
		{"FASTEST", 0, false},
		{"speed", 0, false},
	}
	for _, c := range cases {
		got, err := ParseObjective(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseObjective(%q): expected error", c.in)
		}
	}
	for _, o := range []Objective{ObjectiveShortest, ObjectiveFastest, ObjectiveBalanced} {
		back, err := ParseObjective(o.String())
		if err != nil || back != o {
			t.Errorf("round trip %v -> %q -> %v, %v", o, o.String(), back, err)
		}
	}
}

func TestObjectiveValidation(t *testing.T) {
	set := isa.NewCmov(2, 1)
	opt := ConfigBest()
	opt.MaxLen = 4
	opt.Objective = Objective(99)
	res := Run(set, opt)
	var objErr *UnknownObjectiveError
	if res.Err == nil || !asError(res.Err, &objErr) {
		t.Fatalf("invalid objective: Err = %v, want *UnknownObjectiveError", res.Err)
	}

	// RankPrograms keeps a profile argument for its callers: the one
	// model's name and "" rank alike, and any other name is an error.
	opt = ConfigBest()
	opt.MaxLen = 4
	opt.AllSolutions = true
	res = Run(set, opt)
	def, defCost, err := RankPrograms(set, res.Programs, ObjectiveFastest, "")
	if err != nil {
		t.Fatal(err)
	}
	named, namedCost, err := RankPrograms(set, res.Programs, ObjectiveFastest, uarch.ProfileName)
	if err != nil || namedCost != defCost || len(named) != len(def) || named[0].Format(set.N) != def[0].Format(set.N) {
		t.Fatalf("RankPrograms(%q) = %d programs, cost %v, err %v; want the default ranking (%d programs, cost %v)",
			uarch.ProfileName, len(named), namedCost, err, len(def), defCost)
	}
	if _, _, err := RankPrograms(set, res.Programs, ObjectiveFastest, "little"); err == nil {
		t.Fatal(`RankPrograms(profile "little") succeeded, want an unknown-profile error`)
	}
}

func asError[T error](err error, target *T) bool {
	t, ok := err.(T)
	if ok {
		*target = t
	}
	return ok
}

// TestFastestWinnerInOptimalSet is the differential guarantee of the
// objective stage: the fastest winner is a member of the optimal-length
// solution set (computed independently, without cuts, by the
// all-solutions engine), verifies, and its uarch cost is no worse than
// the shortest pick's.
func TestFastestWinnerInOptimalSet(t *testing.T) {
	specs := []struct {
		set    *isa.Set
		maxLen int
	}{
		{isa.NewCmov(3, 1), 11},
		{isa.NewMinMax(3, 1), 8},
	}
	for _, sp := range specs {
		// Independent ground truth: every optimal program, no cuts.
		all := ConfigAllSolutions()
		all.MaxLen = sp.maxLen
		truth := Run(sp.set, all)
		if truth.Length != sp.maxLen {
			t.Fatalf("%v: ground truth length %d", sp.set, truth.Length)
		}
		optimal := make(map[string]bool, len(truth.Programs))
		for _, p := range truth.Programs {
			optimal[p.Format(sp.set.N)] = true
		}

		for _, obj := range []Objective{ObjectiveFastest, ObjectiveBalanced} {
			opt := ConfigBest()
			opt.MaxLen = sp.maxLen
			opt.Objective = obj
			res := Run(sp.set, opt)
			if res.Length != sp.maxLen || res.Program == nil {
				t.Fatalf("%v/%v: length %d, want %d", sp.set, obj, res.Length, sp.maxLen)
			}
			text := res.Program.Format(sp.set.N)
			if !optimal[text] {
				t.Errorf("%v/%v: winner not in the optimal-length solution set:\n%s", sp.set, obj, text)
			}
			if ce := verify.Counterexample(sp.set, res.Program); ce != nil {
				t.Errorf("%v/%v: winner fails on %v", sp.set, obj, ce)
			}
			if res.RerankCandidates == 0 || res.Cost <= 0 {
				t.Errorf("%v/%v: rerank stats missing: candidates %d cost %v",
					sp.set, obj, res.RerankCandidates, res.Cost)
			}

			// Cost must be ≤ the shortest pick's cost under the same metric.
			short := ConfigBest()
			short.MaxLen = sp.maxLen
			sres := Run(sp.set, short)
			ranked, _, err := RankPrograms(sp.set, []isa.Program{sres.Program, res.Program}, obj, "")
			if err != nil {
				t.Fatal(err)
			}
			if ranked[0].Format(sp.set.N) != text && optimal[text] {
				// The shortest pick ranked strictly better than the winner —
				// only possible if the ranking is broken.
				t.Errorf("%v/%v: shortest pick outranks the objective winner", sp.set, obj)
			}
		}
	}
}

// TestObjectiveWinnerDeterministic pins the determinism claim of the
// objective stage: for both objectives, with and without the §3.5 cut,
// two runs of the same options return the same uarch-ranked winner,
// cost and solution count, and the winner verifies. A map-order or
// other run-to-run dependence in the ranking would fail here.
func TestObjectiveWinnerDeterministic(t *testing.T) {
	sets := []*isa.Set{isa.NewCmov(3, 1), isa.NewMinMax(3, 1)}
	maxLen := map[isa.Kind]int{isa.KindCmov: 11, isa.KindMinMax: 8}
	configs := []struct {
		name string
		opt  Options
	}{
		{"best", ConfigBest()},
		{"allsol", ConfigAllSolutions()},
	}
	for _, set := range sets {
		for _, cfg := range configs {
			for _, obj := range []Objective{ObjectiveFastest, ObjectiveBalanced} {
				opt := cfg.opt
				opt.MaxLen = maxLen[set.Kind]
				opt.Objective = obj
				a, b := Run(set, opt), Run(set, opt)
				if a.Program == nil || b.Program == nil {
					t.Fatalf("%v/%s/%v: no program", set, cfg.name, obj)
				}
				if ce := verify.Counterexample(set, a.Program); ce != nil {
					t.Errorf("%v/%s/%v: winner fails on %v", set, cfg.name, obj, ce)
				}
				pa, pb := a.Program.Format(set.N), b.Program.Format(set.N)
				if pa != pb {
					t.Errorf("%v/%s/%v: winner differs between runs:\n  %s\n  %s", set, cfg.name, obj, pa, pb)
				}
				if a.Cost != b.Cost || a.SolutionCount != b.SolutionCount {
					t.Errorf("%v/%s/%v: cost %v/%v, solution count %d/%d between runs",
						set, cfg.name, obj, a.Cost, b.Cost, a.SolutionCount, b.SolutionCount)
				}
			}
		}
	}
}

// TestObjectivesDivergeAtSort3 pins the Neri-style divergence the whole
// feature exists for: at n=3 (cmov), shortest and fastest pick
// different programs, and the fastest one is strictly cheaper under the
// uarch model's throughput.
func TestObjectivesDivergeAtSort3(t *testing.T) {
	set := isa.NewCmov(3, 1)
	short := ConfigBest()
	short.MaxLen = 11
	sres := Run(set, short)

	fast := ConfigBest()
	fast.MaxLen = 11
	fast.Objective = ObjectiveFastest
	fres := Run(set, fast)

	if sres.Length != 11 || fres.Length != 11 {
		t.Fatalf("lengths %d/%d, want 11/11", sres.Length, fres.Length)
	}
	st, ft := sres.Program.Format(set.N), fres.Program.Format(set.N)
	if st == ft {
		t.Fatalf("shortest and fastest picked the same program at n=3:\n%s", st)
	}
	sc := uarch.Analyze(set, sres.Program).Throughput
	fc := uarch.Analyze(set, fres.Program).Throughput
	if fc > sc {
		t.Errorf("fastest throughput %.3f worse than shortest %.3f", fc, sc)
	}
	if fres.Cost != fc {
		t.Errorf("Result.Cost %.3f != analyzed throughput %.3f", fres.Cost, fc)
	}
}

// TestObjectiveAllSolutionsSurface checks that the caller's enumeration
// request survives the internal AllSolutions forcing: no Programs
// unless asked, ranked best-first and capped when asked.
func TestObjectiveAllSolutionsSurface(t *testing.T) {
	set := isa.NewCmov(3, 1)

	opt := ConfigAllSolutions()
	opt.AllSolutions = false // same pruning surface as the capped run below
	opt.MaxLen = 11
	opt.Objective = ObjectiveFastest
	res := Run(set, opt)
	if res.Programs != nil {
		t.Errorf("non-all run returned %d programs", len(res.Programs))
	}
	if res.SolutionCount < 2 {
		t.Errorf("objective run should report the exact solution count, got %d", res.SolutionCount)
	}

	all := ConfigAllSolutions()
	all.MaxLen = 11
	all.Objective = ObjectiveFastest
	all.MaxSolutions = 5
	ares := Run(set, all)
	if len(ares.Programs) != 5 {
		t.Fatalf("capped all run returned %d programs, want 5", len(ares.Programs))
	}
	if ares.Programs[0].Format(set.N) != res.Program.Format(set.N) {
		t.Errorf("ranked Programs[0] differs from the winner")
	}
	// Best-first: re-ranking the returned slice must not change it.
	ranked, _, err := RankPrograms(set, ares.Programs, ObjectiveFastest, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := range ranked {
		if ranked[i].Format(set.N) != ares.Programs[i].Format(set.N) {
			t.Errorf("Programs not in ranked order at %d", i)
			break
		}
	}
	if ares.SolutionCount != res.SolutionCount {
		t.Errorf("solution counts differ: %d vs %d", ares.SolutionCount, res.SolutionCount)
	}
}

// TestCostOrderBucketQueue pins the cost-ordered bucket mode against
// the default LIFO: same multiset of entries, cost-ascending pops
// within one (f, g) bucket, id-descending on ties.
func TestCostOrderBucketQueue(t *testing.T) {
	var q bucketQueue
	q.costOrder = true
	entries := []openEntry{
		{id: 1, cost: 9, g: 3},
		{id: 2, cost: 2, g: 3},
		{id: 3, cost: 5, g: 3},
		{id: 4, cost: 2, g: 3},
		{id: 5, cost: 7, g: 3},
	}
	for _, e := range entries {
		q.Push(10, e)
	}
	wantIDs := []int32{4, 2, 3, 5, 1} // cost asc, id desc on the 2/2 tie
	for i, want := range wantIDs {
		e, f, ok := q.Pop()
		if !ok || e.id != want || f != 10 {
			t.Fatalf("pop %d = id %d f %d ok %v, want id %d f 10", i, e.id, f, ok, want)
		}
	}
	if _, _, ok := q.Pop(); ok || q.Len() != 0 {
		t.Fatal("queue should be empty")
	}

	// Lower f still wins regardless of cost, and a drained bucket's
	// occupancy bit is cleared even in cost-ordered mode.
	q.Push(12, openEntry{id: 10, cost: 1, g: 3})
	q.Push(11, openEntry{id: 11, cost: 99, g: 3})
	if e, _, _ := q.Pop(); e.id != 11 {
		t.Fatalf("f-order broken: got id %d", e.id)
	}
	if e, _, _ := q.Pop(); e.id != 10 {
		t.Fatalf("single-entry cost bucket broken: got id %d", e.id)
	}
}
