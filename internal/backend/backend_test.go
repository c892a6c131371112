package backend

import (
	"context"
	"errors"
	"testing"

	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/verify"
)

// fakeBackend scripts a Backend for harness tests.
type fakeBackend struct {
	name string
	fn   func(ctx context.Context, set *isa.Set, spec Spec) (*Result, error)
}

func (b *fakeBackend) Name() string { return b.name }
func (b *fakeBackend) Synthesize(ctx context.Context, set *isa.Set, spec Spec) (*Result, error) {
	return b.fn(ctx, set, spec)
}

// correctKernel synthesizes the optimal n=2 kernel (milliseconds) so
// fakes have a genuinely correct program to claim.
func correctKernel(t *testing.T, set *isa.Set) isa.Program {
	t.Helper()
	opt := enum.ConfigBest()
	opt.MaxLen = 4
	r := enum.Run(set, opt)
	if r.Err != nil || r.Program == nil {
		t.Fatalf("setup synthesis failed: %v (len %d)", r.Err, r.Length)
	}
	return r.Program
}

func TestRunFlagsIncorrectProgram(t *testing.T) {
	set := isa.NewCmov(2, 1)
	good := correctKernel(t, set)
	// The optimal kernel minus its last instruction cannot sort (length
	// 4 is minimal), making it a deliberately-wrong StatusFound claim.
	wrong := good[:len(good)-1]
	if verify.Counterexample(set, wrong) == nil {
		t.Fatal("truncated kernel unexpectedly sorts; broken test setup")
	}
	liar := &fakeBackend{name: "liar", fn: func(context.Context, *isa.Set, Spec) (*Result, error) {
		return &Result{Backend: "liar", Status: StatusFound, Program: wrong, Length: len(wrong)}, nil
	}}
	res, err := Run(context.Background(), liar, set, Spec{MaxLen: 4})
	if err == nil {
		t.Fatalf("Run accepted an incorrect program: %+v", res)
	}
	var inc *IncorrectError
	if !errors.As(err, &inc) {
		t.Fatalf("want *IncorrectError, got %T: %v", err, err)
	}
	if inc.Backend != "liar" || inc.Input == nil {
		t.Fatalf("bad IncorrectError: %+v", inc)
	}
}

// TestRunVerifiesEveryListedProgram: a correct Program does not vouch
// for the rest of an all-solutions list. A broken second program must
// turn the whole result into an *IncorrectError.
func TestRunVerifiesEveryListedProgram(t *testing.T) {
	set := isa.NewCmov(2, 1)
	good := correctKernel(t, set)
	wrong := good[:len(good)-1]
	lister := &fakeBackend{name: "lister", fn: func(context.Context, *isa.Set, Spec) (*Result, error) {
		return &Result{Backend: "lister", Status: StatusFound, Program: good, Programs: []isa.Program{good, wrong}, Length: len(good)}, nil
	}}
	res, err := Run(context.Background(), lister, set, Spec{MaxLen: 4})
	var inc *IncorrectError
	if !errors.As(err, &inc) {
		t.Fatalf("want *IncorrectError, got %v (result %+v)", err, res)
	}
	if inc.Backend != "lister" || inc.Input == nil {
		t.Fatalf("bad IncorrectError: %+v", inc)
	}
}

func TestRegistryUnknownNameTypedError(t *testing.T) {
	reg := NewRegistry()
	reg.Register(&fakeBackend{name: "only"})
	_, err := reg.Get("nosuch")
	var unknown *UnknownBackendError
	if !errors.As(err, &unknown) {
		t.Fatalf("want *UnknownBackendError, got %T: %v", err, err)
	}
	if unknown.Name != "nosuch" || len(unknown.Known) != 1 || unknown.Known[0] != "only" {
		t.Fatalf("bad UnknownBackendError: %+v", unknown)
	}
	// Synthesize must surface the same typed error.
	if _, err := reg.Synthesize(context.Background(), "nosuch", isa.NewCmov(2, 1), Spec{}); !errors.As(err, &unknown) {
		t.Fatalf("Synthesize: want *UnknownBackendError, got %T: %v", err, err)
	}
}

// TestDefaultRegistryHasAllSevenBackends lists the seven engines plus
// "portfolio", the name clients and cache keys use for certifying enum.
func TestDefaultRegistryHasAllSevenBackends(t *testing.T) {
	want := []string{"cp", "enum", "ilp", "mcts", "plan", "portfolio", "smt", "stoke"}
	got := Default().Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

// TestEnumSlackBudgetAnswersKnownOptimum pins the budget rule on the
// rows where ConfigBest's first find under a slack budget (MaxLen > L*)
// is longer than L*: min/max n=4 at 16, 17 and 30 finds 16 (18
// duplicate-safe at 30), cmov n=4 at 23 finds 23, cmov n=3
// duplicate-safe at 12 and 13 finds 12, min/max n=5 at 26 finds 26.
// The registry's enum searches L* first and answers L*.
func TestEnumSlackBudgetAnswersKnownOptimum(t *testing.T) {
	type row struct {
		kind   isa.Kind
		n      int
		budget int
		dup    bool
		want   int
	}
	var rows []row
	for _, dup := range []bool{false, true} {
		for _, budget := range []int{15, 16, 17, 30} {
			rows = append(rows, row{isa.KindMinMax, 4, budget, dup, 15})
		}
	}
	for _, budget := range []int{11, 12, 13} {
		rows = append(rows, row{isa.KindCmov, 3, budget, true, 11})
	}
	rows = append(rows, row{isa.KindMinMax, 5, 26, false, 23})
	if !testing.Short() {
		rows = append(rows, row{isa.KindCmov, 4, 23, false, 20})
	}
	for _, r := range rows {
		res, err := Default().Synthesize(context.Background(), "enum", isa.New(r.kind, r.n, 1), Spec{MaxLen: r.budget, DuplicateSafe: r.dup})
		if err != nil {
			t.Fatalf("%v n=%d budget %d dup=%v: %v", r.kind, r.n, r.budget, r.dup, err)
		}
		if res.Status != StatusFound || res.Length != r.want {
			t.Errorf("%v n=%d budget %d dup=%v: %s length %d, want found length %d",
				r.kind, r.n, r.budget, r.dup, res.Status, res.Length, r.want)
		}
	}
}

// TestEnumSlackFallback: when the search at L* comes up empty without
// a context stop (here its StateBudget runs out), the requested budget
// is searched and its find returned, never a refutation of the budget,
// with the effort of both searches reported. A context stop during the
// L* search is reported for the requested budget, without a fallback.
func TestEnumSlackFallback(t *testing.T) {
	set, spec := isa.NewMinMax(4, 1), Spec{MaxLen: 30, DuplicateSafe: true}
	opt := enum.ConfigBest()
	opt.StateBudget = 500
	res, err := Run(context.Background(), &Enum{Opt: opt}, set, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFound || res.Length != 18 || res.Stats.Nodes != 540 {
		t.Fatalf("%s length %d after %d states, want the slack find: length 18 after 500+40 states",
			res.Status, res.Length, res.Stats.Nodes)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err = Run(ctx, &Enum{Opt: enum.ConfigBest()}, set, spec); err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCancelled || res.Length != 30 {
		t.Fatalf("cancelled: %s length %d, want %s length 30", res.Status, res.Length, StatusCancelled)
	}
}

// TestDefaultPortfolioAnswersMatchEnum: "portfolio" is an alias of the
// registry's enum, the same instance, so its answers are enum's,
// reported under enum's name.
func TestDefaultPortfolioAnswersMatchEnum(t *testing.T) {
	pf, err := Default().Get("portfolio")
	if err != nil {
		t.Fatal(err)
	}
	en, err := Default().Get("enum")
	if err != nil {
		t.Fatal(err)
	}
	if pf != en {
		t.Fatalf("portfolio resolves to %T %p, want the registry's enum %p", pf, pf, en)
	}
	res, err := Default().Synthesize(context.Background(), "portfolio", isa.NewCmov(3, 1), Spec{MaxLen: 11, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "enum" || res.Status != StatusFound || res.Length != 11 {
		t.Fatalf("portfolio: %s %v length %d, want enum found length 11", res.Backend, res.Status, res.Length)
	}
}

// TestEnumRefutesBelowProvedOptimumFromTable: below a proved optimum a
// configuration whose exhaustion proves nothing answers no-program from
// the table, without a search, for duplicate-safe specs and ranking
// objectives too; one below the cmov n=4 optimum the cut search would
// exhaust without a proof. ConfigProof still searches: its own
// exhaustion is the proof.
func TestEnumRefutesBelowProvedOptimumFromTable(t *testing.T) {
	en, err := Default().Get("enum")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []isa.Kind{isa.KindCmov, isa.KindMinMax} {
		for n := 2; n <= 4; n++ {
			set := isa.New(kind, n, 1)
			lstar, _, ok := isa.ProvedOptimalLength(set)
			if !ok {
				t.Fatalf("%v: no proved optimum", set)
			}
			for _, spec := range []Spec{
				{MaxLen: lstar - 1},
				{MaxLen: lstar - 2, DuplicateSafe: true},
				{MaxLen: lstar - 1, Objective: enum.ObjectiveFastest},
			} {
				res, err := Run(context.Background(), en, set, spec)
				if err != nil {
					t.Fatal(err)
				}
				if res.Status != StatusNoProgram || res.Length != spec.MaxLen || res.Stats.Nodes != 0 {
					t.Errorf("%v %+v: %v length %d after %d states, want a table no-program at %d",
						set, spec, res.Status, res.Length, res.Stats.Nodes, spec.MaxLen)
				}
			}
		}
	}
	res, err := Run(context.Background(), &Enum{Opt: enum.ConfigProof(0)}, isa.NewCmov(3, 1), Spec{MaxLen: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNoProgram || res.Stats.Nodes == 0 {
		t.Fatalf("ConfigProof: %v after %d states, want a searched no-program", res.Status, res.Stats.Nodes)
	}
}

// TestEnumProofBudgetCertifiesRefutation: sets with m ≠ 1 have no table
// entry, so a ConfigBest exhaustion below their optimum proves nothing
// (the §3.5 cut voids it) and the capped certifying search settles it:
// min/max n=3 m=2 at 7 after a few hundred states, cmov n=3 m=2 at 10
// after about 57,000. A proofBudget too small to finish the certifying
// search leaves the verdict a spent budget.
func TestEnumProofBudgetCertifiesRefutation(t *testing.T) {
	en, err := Default().Get("enum")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		set    *isa.Set
		budget int
		proof  int64
		want   Status
	}{
		{isa.NewMinMax(3, 2), 7, proofBudget, StatusNoProgram},
		{isa.NewCmov(3, 2), 10, proofBudget, StatusNoProgram},
		{isa.NewCmov(3, 2), 10, 1000, StatusExhausted},
	} {
		func() {
			defer func(b int64) { proofBudget = b }(proofBudget)
			proofBudget = tc.proof
			res, err := Run(context.Background(), en, tc.set, Spec{MaxLen: tc.budget})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != tc.want {
				t.Errorf("%v at %d, proofBudget %d: %v after %d states, want %v",
					tc.set, tc.budget, tc.proof, res.Status, res.Stats.Nodes, tc.want)
			}
		}()
	}
}

// TestEnumProofBudgetCertifiesDupSafeRefutation pins a duplicate-safe
// refutation by the certifying search: min/max n=3 m=2 at 7 has no
// table entry and settles within proofBudget.
func TestEnumProofBudgetCertifiesDupSafeRefutation(t *testing.T) {
	res, err := Default().Synthesize(context.Background(), "enum", isa.NewMinMax(3, 2), Spec{MaxLen: 7, DuplicateSafe: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNoProgram || res.Stats.Nodes == 0 {
		t.Fatalf("status %v after %d states, want a searched %v", res.Status, res.Stats.Nodes, StatusNoProgram)
	}
	t.Logf("certified after %d states", res.Stats.Nodes)
}

// deadlineAt is a context whose deadline expires at its k-th Err check:
// a deterministic stand-in for a wall-clock deadline, since the enum
// engine checks Err once every 1024 queue pops on one goroutine.
type deadlineAt struct {
	context.Context
	k int
}

func (c *deadlineAt) Err() error {
	if c.k--; c.k <= 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestEnumProofBudgetReportsStop: a deadline that expires during the
// certifying search is reported as a timeout, not as a spent budget.
// On cmov n=3 m=2 at 10 the ConfigBest search (31,633 states) checks
// the context 32 times and the certifying search about 25 times; the
// deadline falls at the 45th check.
func TestEnumProofBudgetReportsStop(t *testing.T) {
	ctx := &deadlineAt{Context: context.Background(), k: 45}
	res, err := Default().Synthesize(ctx, "enum", isa.NewCmov(3, 2), Spec{MaxLen: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusTimedOut || res.Stats.Nodes <= 31633 {
		t.Fatalf("status %v after %d states, want %v during the certifying search (over 31,633 states)",
			res.Status, res.Stats.Nodes, StatusTimedOut)
	}
}
