package conformance

import (
	"context"
	"strings"
	"testing"
	"time"

	"sortsynth/internal/backend"
	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
)

// smallOptions keeps package tests in the seconds range: n = 2 only,
// differential half only (the metamorphic half is exercised by its own
// tests below and by the full -table=conformance gate).
func smallOptions() Options {
	return Options{
		Seed:            7,
		Specs:           24,
		MaxN:            2,
		BackendTimeout:  500 * time.Millisecond,
		SkipMetamorphic: true,
	}
}

func TestRunCleanOnRealBackends(t *testing.T) {
	rep, err := Run(context.Background(), smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, d := range rep.Divergences {
			t.Errorf("divergence: %s", d)
		}
	}
	if rep.Specs != 24 {
		t.Fatalf("judged %d specs, want 24", rep.Specs)
	}
	found := 0
	for _, m := range rep.Statuses {
		found += m["found"]
	}
	if found == 0 {
		t.Fatal("no backend found anything — the generator produced only hopeless specs")
	}
}

func TestSpecStreamDeterministicInSeed(t *testing.T) {
	opt := smallOptions()
	truthsA, truthsB := newTruthCache(func(string, ...any) {}), newTruthCache(func(string, ...any) {})
	a, err := generateSpecs(context.Background(), opt, truthsA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateSpecs(context.Background(), opt, truthsB)
	if err != nil {
		t.Fatal(err)
	}
	if digestSpecs(a) != digestSpecs(b) {
		t.Fatalf("same seed produced different spec streams: %s vs %s", digestSpecs(a), digestSpecs(b))
	}
	opt.Seed = 8
	c, err := generateSpecs(context.Background(), opt, truthsA)
	if err != nil {
		t.Fatal(err)
	}
	if digestSpecs(c) == digestSpecs(a) {
		t.Fatal("different seeds produced identical spec streams")
	}
}

// TestInjectedLiarsAreCaught is the harness's negative test: planting
// unsound backends must produce divergences attributed to them — a run
// that stays green here proves nothing anywhere else.
func TestInjectedLiarsAreCaught(t *testing.T) {
	opt := smallOptions()
	opt.Extra = LiarBackends()
	rep, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("run with lying backends reported zero divergences")
	}
	caught := map[string]bool{}
	for _, d := range rep.Divergences {
		caught[d.Backend] = true
		if d.Backend == "" || !strings.HasPrefix(d.Backend, "liar-") {
			t.Errorf("divergence blamed on %q, expected only the liars: %s", d.Backend, d)
		}
	}
	if !caught["liar-forger"] || !caught["liar-refuter"] {
		t.Fatalf("not every liar was caught: %v", caught)
	}
}

func TestMetamorphicInvariantsClean(t *testing.T) {
	opt := smallOptions().resolved()
	truths := newTruthCache(opt.Log)
	for _, inv := range runMetamorphic(context.Background(), opt, truths) {
		if inv.Checks == 0 {
			t.Errorf("invariant %s ran zero checks", inv.Name)
		}
		for _, d := range inv.Divergences {
			t.Errorf("invariant %s: %s", inv.Name, d)
		}
	}
}

// TestJudgeBackendRules pins the divergence rules on scripted outcomes,
// independent of any real engine.
func TestJudgeBackendRules(t *testing.T) {
	set := isa.NewCmov(2, 1) // L* = 4
	sp := spec{kind: isa.KindCmov, n: 2, m: 1, opt: 4, budget: 4, timeout: time.Second}
	scripted := func(res *backend.Result) backend.Backend {
		return &scriptedBackend{res: res}
	}
	cases := []struct {
		name     string
		sp       spec
		res      *backend.Result
		wantKind string // "" = no divergence
	}{
		{
			name:     "sound refutation below optimum",
			sp:       spec{kind: isa.KindCmov, n: 2, m: 1, opt: 4, budget: 3, timeout: time.Second},
			res:      &backend.Result{Status: backend.StatusNoProgram, Length: 3},
			wantKind: "",
		},
		{
			name:     "unsound refutation at optimum",
			sp:       sp,
			res:      &backend.Result{Status: backend.StatusNoProgram, Length: 4},
			wantKind: "unsound-refutation",
		},
		{
			name:     "timeout claims nothing",
			sp:       sp,
			res:      &backend.Result{Status: backend.StatusTimedOut, Length: 4},
			wantKind: "",
		},
		{
			name:     "exhausted claims nothing",
			sp:       sp,
			res:      &backend.Result{Status: backend.StatusExhausted, Length: 4},
			wantKind: "",
		},
		{
			name:     "found with inconsistent length",
			sp:       sp,
			res:      &backend.Result{Status: backend.StatusFound, Program: correctN2(t, set), Length: 3},
			wantKind: "malformed-result",
		},
		{
			name:     "correct find at optimum",
			sp:       sp,
			res:      &backend.Result{Status: backend.StatusFound, Program: correctN2(t, set), Length: 4},
			wantKind: "",
		},
		{
			name: "false optimality claim",
			sp:   spec{kind: isa.KindCmov, n: 2, m: 1, opt: 4, budget: 6, timeout: time.Second},
			res: &backend.Result{Status: backend.StatusFound, Program: paddedN2(t, set), Length: 6,
				Optimal: true},
			wantKind: "false-optimality-claim",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			divs, _ := judgeBackend(context.Background(), tc.sp, "scripted", scripted(tc.res))
			if tc.wantKind == "" {
				if len(divs) != 0 {
					t.Fatalf("unexpected divergences: %v", divs)
				}
				return
			}
			if len(divs) != 1 || divs[0].Kind != tc.wantKind {
				t.Fatalf("divergences = %v, want one of kind %q", divs, tc.wantKind)
			}
		})
	}
}

type scriptedBackend struct{ res *backend.Result }

func (s *scriptedBackend) Name() string { return "scripted" }
func (s *scriptedBackend) Synthesize(context.Context, *isa.Set, backend.Spec) (*backend.Result, error) {
	r := *s.res
	r.Backend = "scripted"
	return &r, nil
}

func correctN2(t *testing.T, set *isa.Set) isa.Program {
	t.Helper()
	p, err := isa.ParseProgram("mov s1 r2; cmp r1 r2; cmovg r2 r1; cmovg r1 s1", 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// paddedN2 is the optimal n=2 kernel padded with scratch writes to
// length 6 — correct, within budget, but not minimal.
func paddedN2(t *testing.T, set *isa.Set) isa.Program {
	t.Helper()
	p, err := isa.ParseProgram("mov s1 r2; cmp r1 r2; cmovg r2 r1; cmovg r1 s1; mov s1 r1; mov s1 r1", 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestObjectiveSpecClass pins the judge's objective rules directly: the
// enum backend honors a fastest spec at the certified optimal length,
// and a single-solution backend's typed refusal is a no-claim outcome,
// never a divergence.
func TestObjectiveSpecClass(t *testing.T) {
	ctx := context.Background()
	sp := spec{kind: isa.KindCmov, n: 3, m: 1, obj: enum.ObjectiveFastest,
		budget: 11, opt: 11, timeout: 5 * time.Second}

	eb, err := backend.Default().Get("enum")
	if err != nil {
		t.Fatal(err)
	}
	divs, st := judgeBackend(ctx, sp, "enum", eb)
	if len(divs) != 0 || st != "found" {
		t.Fatalf("enum on a fastest spec: status %q, divergences %v", st, divs)
	}

	sb, err := backend.Default().Get("stoke")
	if err != nil {
		t.Fatal(err)
	}
	divs, st = judgeBackend(ctx, sp, "stoke", sb)
	if len(divs) != 0 || st != "unsupported-objective" {
		t.Fatalf("stoke on a fastest spec: status %q, divergences %v, want a clean unsupported-objective", st, divs)
	}

	// The same refusal on a shortest spec would be a genuine backend bug.
	sp.obj = enum.ObjectiveShortest
	if divs, _ = judgeBackend(ctx, sp, "stoke", sb); len(divs) != 0 {
		t.Fatalf("stoke on a shortest spec diverged: %v", divs)
	}
}
