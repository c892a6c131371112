package backend

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/stoke"
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

// TestPortfolioCancelsLosers launches a slow member first and the
// winner one stagger later: the winner's verified kernel must cancel
// the still-running first member promptly.
func TestPortfolioCancelsLosers(t *testing.T) {
	set := isa.NewCmov(2, 1)
	good := correctKernel(t, set)
	winner := &fakeBackend{name: "win", fn: func(ctx context.Context, _ *isa.Set, _ Spec) (*Result, error) {
		return &Result{Backend: "win", Status: StatusFound, Program: good, Length: len(good)}, nil
	}}
	observed := make(chan time.Duration, 1)
	loser := &fakeBackend{name: "lose", fn: func(ctx context.Context, _ *isa.Set, _ Spec) (*Result, error) {
		start := time.Now()
		select {
		case <-ctx.Done():
			observed <- time.Since(start)
			return &Result{Backend: "lose", Status: stopStatus(ctx)}, nil
		case <-time.After(5 * time.Second):
			return &Result{Backend: "lose", Status: StatusExhausted}, nil
		}
	}}
	res, err := Run(context.Background(), NewPortfolio(loser, winner), set, Spec{MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFound || res.Winner != "win" {
		t.Fatalf("want win by %q, got status %v winner %q", "win", res.Status, res.Winner)
	}
	select {
	case wait := <-observed:
		if wait > time.Second {
			t.Fatalf("loser saw cancellation only after %v", wait)
		}
	default:
		t.Fatal("loser never observed cancellation")
	}
	if len(res.Race) != 2 || res.Race[0].Status != StatusCancelled {
		t.Fatalf("race table %+v, want loser cancelled", res.Race)
	}
	if want := (SchedStats{FallbackStarts: 1, FallbackWin: true}); *res.Sched != want {
		t.Fatalf("sched = %+v, want %+v", *res.Sched, want)
	}
}

func TestPortfolioAllTimeoutNoGoroutineLeak(t *testing.T) {
	set := isa.NewCmov(2, 1)
	block := func(name string) *fakeBackend {
		return &fakeBackend{name: name, fn: func(ctx context.Context, _ *isa.Set, _ Spec) (*Result, error) {
			<-ctx.Done()
			return &Result{Backend: name, Status: stopStatus(ctx)}, nil
		}}
	}
	before := runtime.NumGoroutine()
	// Long enough that both fallback slots (one and two staggers) come
	// well before the deadline, so every member launches and times out.
	ctx, cancel := context.WithTimeout(context.Background(), 8*fallbackStagger)
	defer cancel()
	res, err := Run(ctx, NewPortfolio(block("a"), block("b"), block("c")), set, Spec{MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusTimedOut {
		t.Fatalf("status %v, want %v", res.Status, StatusTimedOut)
	}
	for _, e := range res.Race {
		if e.Status != StatusTimedOut {
			t.Fatalf("race entry %+v, want timed-out", e)
		}
	}
	// Synthesize waits for every racer before returning, so the
	// goroutine count settles back immediately; poll briefly to absorb
	// unrelated runtime churn.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before race, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPortfolioAggregateRefutationWins(t *testing.T) {
	set := isa.NewCmov(2, 1)
	refuter := &fakeBackend{name: "refute", fn: func(context.Context, *isa.Set, Spec) (*Result, error) {
		return &Result{Backend: "refute", Status: StatusNoProgram}, nil
	}}
	spent := &fakeBackend{name: "spent", fn: func(context.Context, *isa.Set, Spec) (*Result, error) {
		return &Result{Backend: "spent", Status: StatusExhausted}, nil
	}}
	res, err := Run(context.Background(), NewPortfolio(refuter, spent), set, Spec{MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNoProgram {
		t.Fatalf("aggregate status %v, want %v (a sound refutation beats a spent budget)",
			res.Status, StatusNoProgram)
	}
}

// TestPortfolioSmoke races two real engines (enum vs stoke) at n=3 —
// the `make check` smoke test, run under -race there.
func TestPortfolioSmoke(t *testing.T) {
	set := isa.NewCmov(3, 1)
	pf := NewPortfolio(NewEnum(enum.ConfigBest()), NewStoke(stoke.Options{}))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := Run(ctx, pf, set, Spec{MaxLen: 11, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFound {
		t.Fatalf("race found nothing: %v (race %+v)", res.Status, res.Race)
	}
	if res.Winner == "" || len(res.Program) == 0 || res.Length != len(res.Program) {
		t.Fatalf("malformed winning result: %+v", res)
	}
	if ce := verify.Counterexample(set, res.Program); ce != nil {
		t.Fatalf("winner fails on %v", ce)
	}
}

// TestEnumDupSlackBudgetOptimal is the regression pin for the
// weak-order probe-down: ConfigBest's inadmissible permutation-count
// heuristic used to return a length-12 kernel for cmov n=3
// duplicate-safe specs whenever the budget had slack (MaxLen 12 or 13),
// one instruction over the certified optimum of 11. The adapter now
// probes below every first find on duplicate-safe specs until a
// tighter budget refutes.
func TestEnumDupSlackBudgetOptimal(t *testing.T) {
	b, err := Default().Get("enum")
	if err != nil {
		t.Fatal(err)
	}
	set := isa.NewCmov(3, 1)
	for _, budget := range []int{11, 12, 13} {
		res, err := Run(context.Background(), b, set, Spec{MaxLen: budget, DuplicateSafe: true})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if res.Status != StatusFound || res.Length != 11 {
			t.Fatalf("budget %d: %s length %d, want found length 11", budget, res.Status, res.Length)
		}
	}
}

// TestDefaultPortfolioAnswersMatchEnum is the portfolio's answer gate
// over a mixed workload (both ISAs, n = 2 and 3, three seeds each, at
// the certified optimal budget), at GOMAXPROCS 1 and 2. The staggered
// launches decide which engine answers, never what the answer is: when
// enum wins, its kernel is byte-identical to a direct enum synthesis;
// any other winner must still land on the optimal length.
func TestDefaultPortfolioAnswersMatchEnum(t *testing.T) {
	reg := Default()
	enumB, err := reg.Get("enum")
	if err != nil {
		t.Fatal(err)
	}
	pf, err := reg.Get("portfolio")
	if err != nil {
		t.Fatal(err)
	}
	optimum := map[isa.Kind]map[int]int{
		isa.KindCmov:   {2: 4, 3: 11},
		isa.KindMinMax: {2: 3, 3: 8},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, kind := range []isa.Kind{isa.KindCmov, isa.KindMinMax} {
			for _, n := range []int{2, 3} {
				set := isa.New(kind, n, 1)
				for seed := int64(1); seed <= 3; seed++ {
					spec := Spec{MaxLen: optimum[kind][n], Seed: seed}
					ref, err := Run(context.Background(), enumB, set, spec)
					if err != nil || ref.Status != StatusFound {
						t.Fatalf("enum reference %v seed %d: %v %+v", set, seed, err, ref)
					}
					got, err := Run(context.Background(), pf, set, spec)
					if err != nil || got.Status != StatusFound {
						t.Fatalf("portfolio %v seed %d: %v %+v", set, seed, err, got)
					}
					label := fmt.Sprintf("GOMAXPROCS=%d %v seed=%d", procs, set, seed)
					switch {
					case got.Winner == "enum" && got.Program.Format(n) != ref.Program.Format(n):
						t.Errorf("%s: enum won with a different kernel\nref:\n%s\ngot:\n%s",
							label, ref.Program.Format(n), got.Program.Format(n))
					case got.Length != ref.Length:
						t.Errorf("%s: length %d (winner %s), optimum %d", label, got.Length, got.Winner, ref.Length)
					}
				}
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
