package sortsynth_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"sortsynth"
	"sortsynth/internal/backend"
	"sortsynth/internal/isa"
)

// found returns a checker that fails the test unless a synthesis
// returned a verified kernel: found(t)(sortsynth.SynthesizeBest(…)).
func found(t *testing.T) func(*sortsynth.Result, error) *sortsynth.Result {
	return func(res *sortsynth.Result, err error) *sortsynth.Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sortsynth.StatusFound {
			t.Fatalf("status %s, want found", res.Status)
		}
		return res
	}
}

func TestQuickstartFlow(t *testing.T) {
	set := sortsynth.NewCmovSet(3, 1)
	bound, ok := sortsynth.KnownOptimalLength(set)
	if !ok || bound != 11 {
		t.Fatalf("KnownOptimalLength = %d, %v", bound, ok)
	}
	res := found(t)(sortsynth.SynthesizeBest(set, bound))
	if res.Length != 11 {
		t.Fatalf("synthesized length %d, want 11", res.Length)
	}
	if !sortsynth.Verify(set, res.Program) {
		t.Fatal("synthesized kernel does not verify")
	}
	a := sortsynth.Analyze(set, res.Program)
	if a.Instructions != 11 || a.Score <= 0 || a.Throughput <= 0 {
		t.Errorf("Analyze = %+v", a)
	}
}

// TestSynthesizeMatchesRegistryEnum pins the public API to the
// registry's enum backend: the same kernel, byte for byte, for every
// budget from the optimum to two above it, on both test suites. A slack
// budget answers the known optimum (min/max n=4 at 16 and 30: 15; cmov
// n=3 duplicate-safe at 12: 11), as it does in sortsynthd and the bake.
func TestSynthesizeMatchesRegistryEnum(t *testing.T) {
	type row struct {
		set    *sortsynth.Set
		budget int
	}
	var rows []row
	for n := 2; n <= 3; n++ {
		for _, set := range []*sortsynth.Set{sortsynth.NewCmovSet(n, 1), sortsynth.NewMinMaxSet(n, 1)} {
			lstar, _ := sortsynth.KnownOptimalLength(set)
			for budget := lstar; budget <= lstar+2; budget++ {
				rows = append(rows, row{set, budget})
			}
		}
	}
	rows = append(rows, row{sortsynth.NewMinMaxSet(4, 1), 16}, row{sortsynth.NewMinMaxSet(4, 1), 30})
	for _, r := range rows {
		for _, dup := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/len%d/dup=%v", r.set, r.budget, dup), func(t *testing.T) {
				call := sortsynth.SynthesizeBest
				if dup {
					call = sortsynth.SynthesizeDuplicateSafe
				}
				got := found(t)(call(r.set, r.budget))
				want := found(t)(backend.Default().Synthesize(context.Background(), "enum", r.set,
					backend.Spec{MaxLen: r.budget, DuplicateSafe: dup}))
				lstar, _ := sortsynth.KnownOptimalLength(r.set)
				if got.Length != lstar {
					t.Errorf("length %d, want the known optimum %d", got.Length, lstar)
				}
				if g, w := got.Program.Format(r.set.N), want.Program.Format(r.set.N); g != w {
					t.Errorf("kernel differs from the registry enum answer:\n%s\nwant\n%s", g, w)
				}
			})
		}
	}
}

func TestEnumerateAllFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	set := sortsynth.NewCmovSet(3, 1)
	res := found(t)(sortsynth.EnumerateAll(set, 11, 100))
	if res.Solutions != 5602 {
		t.Fatalf("Solutions = %d, want 5602", res.Solutions)
	}
	if len(res.Programs) != 100 {
		t.Errorf("materialized %d programs, want capped 100", len(res.Programs))
	}
}

func TestProveNoKernelFacade(t *testing.T) {
	// There is provably no 3-instruction kernel for n=2.
	set := sortsynth.NewCmovSet(2, 1)
	res, err := sortsynth.ProveNoKernel(set, 3, 0)
	if err != nil || res.Status != sortsynth.StatusNoProgram {
		t.Fatalf("lower-bound proof failed: %+v, %v", res, err)
	}
	// And there is a 4-instruction kernel, so the proof must fail at 4.
	res = found(t)(sortsynth.ProveNoKernel(set, 4, 0))
	if res.Length != 4 || !res.Optimal {
		t.Errorf("disproof found length %d (certified %v), want a certified 4", res.Length, res.Optimal)
	}
}

// TestProvedOptimaHold re-proves every table entry whose proof is the
// in-repo exhaustion: ProveNoKernel one below it must exhaust. These are
// the entries that let backend.Enum refute a budget without a search.
// The cmov n=4 entry rests on the paper (§5.3) and is not re-proved.
func TestProvedOptimaHold(t *testing.T) {
	proved := 0
	for _, set := range []*sortsynth.Set{
		sortsynth.NewCmovSet(2, 1), sortsynth.NewCmovSet(3, 1), sortsynth.NewCmovSet(4, 1), sortsynth.NewCmovSet(5, 1),
		sortsynth.NewMinMaxSet(2, 1), sortsynth.NewMinMaxSet(3, 1), sortsynth.NewMinMaxSet(4, 1), sortsynth.NewMinMaxSet(5, 1),
	} {
		lstar, proof, ok := isa.ProvedOptimalLength(set)
		if !ok || proof != isa.ProofExhaustion {
			continue
		}
		proved++
		res, err := sortsynth.ProveNoKernel(set, lstar-1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sortsynth.StatusNoProgram {
			t.Errorf("%v: ProveNoKernel at %d = %s, want no-program", set, lstar-1, res.Status)
		}
		t.Logf("%v: no kernel of length %d (%d states)", set, lstar-1, res.Stats.Nodes)
	}
	if proved != 5 {
		t.Errorf("%d entries proved by exhaustion, want 5 (cmov and min/max n = 2, 3, min/max n=4)", proved)
	}
}

// TestProveNoKernelTimeout checks that a proof honours its timeout: the
// cmov n=4 length-19 refutation is a multi-week search, so a 1 s budget
// must come back timed out, claiming nothing, soon after the deadline.
func TestProveNoKernelTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 1 s search")
	}
	start := time.Now()
	res, err := sortsynth.ProveNoKernel(sortsynth.NewCmovSet(4, 1), 19, time.Second)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sortsynth.StatusTimedOut || res.Optimal {
		t.Fatalf("status %s (certified %v), want timed-out claiming nothing", res.Status, res.Optimal)
	}
	if wall > 5*time.Second {
		t.Errorf("a 1 s proof returned after %v", wall.Round(time.Millisecond))
	}
}

func TestParseAndCounterexample(t *testing.T) {
	set := sortsynth.NewCmovSet(2, 1)
	p, err := sortsynth.Parse("mov s1 r2; cmp r1 r2; cmovg r2 r1; cmovg r1 s1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if ce := sortsynth.Counterexample(set, p); ce != nil {
		t.Errorf("correct kernel has counterexample %v", ce)
	}
	broken, _ := sortsynth.Parse("mov r1 r2", 2)
	if ce := sortsynth.Counterexample(set, broken); ce == nil {
		t.Error("broken kernel has no counterexample")
	}
	if sortsynth.VerifyDuplicates(set, broken) {
		t.Error("broken kernel passes duplicate verification")
	}
}

func TestSynthesizeMinimalFacade(t *testing.T) {
	set := sortsynth.NewMinMaxSet(3, 1)
	res := found(t)(sortsynth.SynthesizeMinimal(set, time.Minute))
	if res.Length != 8 || !res.Optimal {
		t.Fatalf("minimal min/max: length %d, certified %v", res.Length, res.Optimal)
	}
}

func TestSynthesizeMinimalN2Certified(t *testing.T) {
	res := found(t)(sortsynth.SynthesizeMinimal(sortsynth.NewCmovSet(2, 1), 0))
	if res.Length != 4 || !res.Optimal {
		t.Fatalf("minimal n=2: length %d, certified %v; want a certified 4", res.Length, res.Optimal)
	}
}

func TestSynthesizeMinimalN3Certified(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := found(t)(sortsynth.SynthesizeMinimal(sortsynth.NewCmovSet(3, 1), 2*time.Minute))
	if res.Length != 11 || !res.Optimal {
		t.Fatalf("minimal n=3: length %d, certified %v; want a certified 11", res.Length, res.Optimal)
	}
}

func TestDenoteAndAsmFacade(t *testing.T) {
	set := sortsynth.NewCmovSet(3, 1)
	res := found(t)(sortsynth.SynthesizeBest(set, 11))
	if res.Length != 11 {
		t.Fatal("synthesis failed")
	}
	exprs := sortsynth.Denote(set, res.Program)
	if len(exprs) != 3 {
		t.Fatalf("Denote returned %d expressions", len(exprs))
	}
	// r1 of any correct kernel is the minimum of all inputs.
	b, _ := sortsynth.Parse("mov s1 r1; cmp r1 r2; cmovg r1 r2; cmp r1 r3; cmovg r1 r3", 3)
	minExpr := sortsynth.Denote(set, b)[0]
	if !sortsynth.ExprEquiv(3, exprs[0], minExpr) {
		t.Errorf("r1 = %s is not the 3-way minimum", exprs[0])
	}
	asm := sortsynth.AsmX86(set, res.Program)
	if !strings.Contains(asm, "rax") || strings.Count(asm, "\n") != 11 {
		t.Errorf("assembly rendering wrong:\n%s", asm)
	}
	// A minimal kernel is a fixpoint of the classical optimizer.
	if got := sortsynth.Optimize(set, res.Program); len(got) != 11 {
		t.Errorf("Optimize shrank a minimal kernel to %d", len(got))
	}
}

func TestMinMaxFacade(t *testing.T) {
	set := sortsynth.NewMinMaxSet(3, 1)
	bound, ok := sortsynth.KnownOptimalLength(set)
	if !ok || bound != 8 {
		t.Fatalf("minmax bound = %d", bound)
	}
	res := found(t)(sortsynth.SynthesizeBest(set, bound))
	if res.Length != 8 || !sortsynth.Verify(set, res.Program) {
		t.Fatalf("minmax synthesis failed: length %d", res.Length)
	}
}
