package backend

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
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
// Both registry enum entries search L* first and answer L*.
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
	for _, name := range []string{"enum", "portfolio"} {
		b, err := Default().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			res, err := Run(context.Background(), b, isa.New(r.kind, r.n, 1), Spec{MaxLen: r.budget, DuplicateSafe: r.dup})
			if err != nil {
				t.Fatalf("%s %v n=%d budget %d dup=%v: %v", name, r.kind, r.n, r.budget, r.dup, err)
			}
			if res.Status != StatusFound || res.Length != r.want {
				t.Errorf("%s %v n=%d budget %d dup=%v: %s length %d, want found length %d",
					name, r.kind, r.n, r.budget, r.dup, res.Status, res.Length, r.want)
			}
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

// TestDefaultPortfolioAnswersMatchEnum is the portfolio's answer gate,
// at GOMAXPROCS 1 and 2: on a mixed workload (both ISAs, n = 2 and 3,
// three seeds each, at the certified optimal budget) and one budget
// below the optimum per ISA, "portfolio" returns the status, length and
// kernel bytes of a direct certifying enum synthesis, whatever the seed.
func TestDefaultPortfolioAnswersMatchEnum(t *testing.T) {
	ref := &Enum{Opt: enum.ConfigBest(), ProofBudget: 1 << 18}
	pf, err := Default().Get("portfolio")
	if err != nil {
		t.Fatal(err)
	}
	optimum := map[isa.Kind]map[int]int{
		isa.KindCmov:   {2: 4, 3: 11},
		isa.KindMinMax: {2: 3, 3: 8},
	}
	type row struct {
		kind isa.Kind
		n    int
		spec Spec
		want Status
	}
	var rows []row
	for _, kind := range []isa.Kind{isa.KindCmov, isa.KindMinMax} {
		for _, n := range []int{2, 3} {
			for seed := int64(1); seed <= 3; seed++ {
				rows = append(rows, row{kind, n, Spec{MaxLen: optimum[kind][n], Seed: seed}, StatusFound})
			}
		}
		rows = append(rows, row{kind, 3, Spec{MaxLen: optimum[kind][3] - 1}, StatusNoProgram})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, r := range rows {
			set := isa.New(r.kind, r.n, 1)
			label := fmt.Sprintf("GOMAXPROCS=%d %v len=%d seed=%d", procs, set, r.spec.MaxLen, r.spec.Seed)
			want, err := Run(context.Background(), ref, set, r.spec)
			if err != nil || want.Status != r.want {
				t.Fatalf("%s: enum reference %v %+v, want %v", label, err, want, r.want)
			}
			got, err := Run(context.Background(), pf, set, r.spec)
			if err != nil {
				t.Fatalf("%s: portfolio: %v", label, err)
			}
			if got.Backend != "portfolio" || got.Status != want.Status || got.Length != want.Length ||
				got.Program.Format(r.n) != want.Program.Format(r.n) {
				t.Errorf("%s: portfolio %s %v length %d\n%s\nenum %v length %d\n%s", label,
					got.Backend, got.Status, got.Length, got.Program.Format(r.n),
					want.Status, want.Length, want.Program.Format(r.n))
			}
		}
	}
}

// TestEnumProofBudgetCertifiesRefutation: ConfigBest's §3.5 cut voids
// the exhaustion proof, so one below the cmov n=3 optimum the plain
// adapter can only report a spent budget. With a ProofBudget the same
// search certifies the refutation — unless the budget is too small to
// finish the certifying search, which leaves the verdict unchanged.
func TestEnumProofBudgetCertifiesRefutation(t *testing.T) {
	set := isa.NewCmov(3, 1)
	spec := Spec{MaxLen: 10}
	for _, tc := range []struct {
		budget int64
		want   Status
	}{
		{0, StatusExhausted},
		{1 << 18, StatusNoProgram},
		{1000, StatusExhausted},
	} {
		res, err := Run(context.Background(), &Enum{Opt: enum.ConfigBest(), ProofBudget: tc.budget}, set, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != tc.want {
			t.Fatalf("ProofBudget %d: status %v, want %v", tc.budget, res.Status, tc.want)
		}
	}
}

// TestEnumProofBudgetCertifiesDupSafeRefutation pins a duplicate-safe
// refutation: one below the cmov n=3 optimum, the certifying proof
// search fits the portfolio's 2^18-state cap only because the pair
// bound prunes it (without it the search stops at the cap, unproven).
func TestEnumProofBudgetCertifiesDupSafeRefutation(t *testing.T) {
	b := &Enum{Opt: enum.ConfigBest(), ProofBudget: 1 << 18}
	res, err := Run(context.Background(), b, isa.NewCmov(3, 1), Spec{MaxLen: 10, DuplicateSafe: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNoProgram {
		t.Fatalf("status %v after %d nodes, want %v", res.Status, res.Stats.Nodes, StatusNoProgram)
	}
	t.Logf("certified after %d nodes", res.Stats.Nodes)
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
// On min/max n=4 duplicate-safe at 14 the ConfigBest search (4,634
// states) checks the context 5 times and the certifying search 74
// times; the deadline falls at the 20th check.
func TestEnumProofBudgetReportsStop(t *testing.T) {
	ctx := &deadlineAt{Context: context.Background(), k: 20}
	b := &Enum{Opt: enum.ConfigBest(), ProofBudget: math.MaxInt64}
	res, err := Run(ctx, b, isa.NewMinMax(4, 1), Spec{MaxLen: 14, DuplicateSafe: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusTimedOut || res.Stats.Nodes <= 4634 {
		t.Fatalf("status %v after %d states, want %v during the certifying search (over 4,634 states)",
			res.Status, res.Stats.Nodes, StatusTimedOut)
	}
}
