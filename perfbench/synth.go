package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"sortsynth"
	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/verify"
)

// Synthesis classes of the synth-cold workload. They stress the search
// differently: first-solution search stops early, while enumeration and
// proofs exhaust whole levels and lean on the dedup table and the queue.
const (
	classFirst = "first"
	classEnum  = "enum"
	classProof = "proof"
)

var classes = []string{classFirst, classEnum, classProof}

// synthSpec is one cold synthesis with the reference outcome it must
// reproduce.
type synthSpec struct {
	Class string
	Name  string
	Kind  isa.Kind
	N     int
	Opt   enum.Options
	// WantLen is the known optimal kernel length, or -1 for a proof
	// that no kernel of length ≤ Opt.MaxLen exists.
	WantLen int
	// WantCount is the exact number of optimal kernels (enumeration
	// specs), or 0 when unchecked.
	WantCount int64
}

func (sp synthSpec) set() *isa.Set { return isa.New(sp.Kind, sp.N, 1) }

// optimal returns the known optimal length of an (isa, n) pair.
func optimal(kind isa.Kind, n int) int {
	l, ok := sortsynth.KnownOptimalLength(isa.New(kind, n, 1))
	if !ok {
		panic(fmt.Sprintf("no known optimal length for %v n=%d", kind, n))
	}
	return l
}

// synthSpecs is the fixed synth-cold spec list. Every spec uses a named
// program configuration; only Workers, MaxLen, DuplicateSafe and
// Objective are set on top, as a caller of the public API would.
func synthSpecs() []synthSpec {
	best := func(kind isa.Kind, n, workers int, dup bool, obj enum.Objective) enum.Options {
		o := enum.ConfigBest()
		o.MaxLen = optimal(kind, n)
		o.Workers = workers
		o.DuplicateSafe = dup
		o.Objective = obj
		return o
	}
	all := func(kind isa.Kind, n int) enum.Options {
		o := enum.ConfigAllSolutions()
		o.MaxLen = optimal(kind, n)
		return o
	}
	proof := func(kind isa.Kind, n int) enum.Options { return enum.ConfigProof(optimal(kind, n) - 1) }
	cm, mm := isa.KindCmov, isa.KindMinMax
	return []synthSpec{
		{Class: classFirst, Name: "cmov4-w1", Kind: cm, N: 4, Opt: best(cm, 4, 1, false, enum.ObjectiveShortest), WantLen: optimal(cm, 4)},
		{Class: classFirst, Name: "cmov4-w2", Kind: cm, N: 4, Opt: best(cm, 4, 2, false, enum.ObjectiveShortest), WantLen: optimal(cm, 4)},
		{Class: classFirst, Name: "cmov4-dupsafe", Kind: cm, N: 4, Opt: best(cm, 4, 0, true, enum.ObjectiveShortest), WantLen: optimal(cm, 4)},
		{Class: classFirst, Name: "minmax5", Kind: mm, N: 5, Opt: best(mm, 5, 0, false, enum.ObjectiveShortest), WantLen: optimal(mm, 5)},
		{Class: classEnum, Name: "cmov3-all", Kind: cm, N: 3, Opt: all(cm, 3), WantLen: optimal(cm, 3), WantCount: 5602},
		{Class: classEnum, Name: "minmax3-all", Kind: mm, N: 3, Opt: all(mm, 3), WantLen: optimal(mm, 3), WantCount: 604},
		// cmov n=4 under objective=fastest ranks 65,536 of 7,043,960
		// optimal kernels and takes ≈12 s per search, more than a whole
		// run can spend on one spec; n=3 exercises the same re-rank.
		{Class: classEnum, Name: "cmov3-fastest", Kind: cm, N: 3, Opt: best(cm, 3, 0, false, enum.ObjectiveFastest), WantLen: optimal(cm, 3), WantCount: 234},
		{Class: classProof, Name: "cmov3-proof10", Kind: cm, N: 3, Opt: proof(cm, 3), WantLen: -1},
		{Class: classProof, Name: "minmax4-proof14", Kind: mm, N: 4, Opt: proof(mm, 4), WantLen: -1},
	}
}

// synthRun is one synthesis with its wall time.
type synthRun struct {
	Spec synthSpec
	Res  *enum.Result
	Wall time.Duration
}

// synthPass is one pass over every class.
type synthPass struct {
	Runs      []synthRun
	ClassWall map[string]time.Duration
	VerifyDur time.Duration // time in the program's verifier (traced passes only)
}

// runSynthPass runs every spec once, class by class, in a seeded order.
// Only the enum.RunContext calls are timed into the class wall time; the
// yardstick is read before each one and the output checks run after each
// class.
func runSynthPass(ctx context.Context, specs []synthSpec, rng *rand.Rand, yard *yardstick, tr *tracer, parent int64, op *int64, chk *checks) synthPass {
	pass := synthPass{ClassWall: make(map[string]time.Duration)}
	order := append([]string(nil), classes...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, class := range order {
		var cs []synthSpec
		for _, sp := range specs {
			if sp.Class == class {
				cs = append(cs, sp)
			}
		}
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		cspan := tr.begin("bench.class."+class, parent, *op)
		var runs []synthRun
		for _, sp := range cs {
			*op++
			set := sp.set()
			yard.read(2)
			s := tr.begin("enum.RunContext", cspan.id(), *op)
			t0 := time.Now()
			res := enum.RunContext(ctx, set, sp.Opt)
			wall := time.Since(t0)
			s.end()
			pass.ClassWall[class] += wall
			runs = append(runs, synthRun{Spec: sp, Res: res, Wall: wall})
		}
		for _, r := range runs {
			chk.record(checkSynth(r))
			if tr != nil {
				pass.VerifyDur += verifyWithProgram(r, tr, cspan.id(), *op)
			}
		}
		cspan.end()
		pass.Runs = append(pass.Runs, runs...)
	}
	return pass
}

// checkSynth checks one synthesis against its reference outcome with the
// benchmark's own kernel checker.
func checkSynth(r synthRun) error {
	sp, res := r.Spec, r.Res
	switch {
	case res.Err != nil:
		return fmt.Errorf("%s: %v", sp.Name, res.Err)
	case res.TimedOut || res.Cancelled:
		return fmt.Errorf("%s: search stopped early", sp.Name)
	case sp.WantLen < 0:
		if !res.Proof || res.Length != -1 {
			return fmt.Errorf("%s: want a proof of no kernel, got proof=%v length=%d", sp.Name, res.Proof, res.Length)
		}
		return nil
	case res.Length != sp.WantLen || len(res.Program) != sp.WantLen:
		return fmt.Errorf("%s: length %d, want the known optimum %d", sp.Name, res.Length, sp.WantLen)
	case sp.WantCount > 0 && res.SolutionCount != sp.WantCount:
		return fmt.Errorf("%s: %d optimal kernels, want %d", sp.Name, res.SolutionCount, sp.WantCount)
	}
	dup := sp.Opt.DuplicateSafe
	if !sortsAll(sp.N, 1, res.Program, dup) {
		return fmt.Errorf("%s: kernel %q does not sort", sp.Name, res.Program.FormatInline(sp.N))
	}
	if sp.Opt.AllSolutions && int64(len(res.Programs)) != sp.WantCount {
		return fmt.Errorf("%s: materialized %d kernels, want %d", sp.Name, len(res.Programs), sp.WantCount)
	}
	for _, p := range res.Programs {
		if len(p) != sp.WantLen || !sortsAll(sp.N, 1, p, dup) {
			return fmt.Errorf("%s: enumerated kernel %q does not sort", sp.Name, p.FormatInline(sp.N))
		}
	}
	return nil
}

// verifyWithProgram times the program's own verifier over every kernel a
// synthesis produced (the verify layer's share of a miss).
func verifyWithProgram(r synthRun, tr *tracer, parent, op int64) time.Duration {
	progs := r.Res.Programs
	if len(progs) == 0 && r.Res.Program != nil {
		progs = []isa.Program{r.Res.Program}
	}
	if len(progs) == 0 {
		return 0
	}
	set := r.Spec.set()
	s := tr.begin("verify.Sorts", parent, op)
	t0 := time.Now()
	for _, p := range progs {
		if r.Spec.Opt.DuplicateSafe {
			verify.SortsDuplicates(set, p)
		} else {
			verify.Sorts(set, p)
		}
	}
	d := time.Since(t0)
	s.end()
	return d
}

// w1w2Match reports whether the Workers=1 and Workers=2 cmov n=4 runs of
// a pass returned the same kernel. A mismatch is recorded, not failed:
// the engines are allowed to pick different optimal kernels today.
func w1w2Match(p synthPass) (match bool, ratio float64) {
	var w1, w2 *synthRun
	for i := range p.Runs {
		switch p.Runs[i].Spec.Name {
		case "cmov4-w1":
			w1 = &p.Runs[i]
		case "cmov4-w2":
			w2 = &p.Runs[i]
		}
	}
	if w1 == nil || w2 == nil || w1.Res.Program == nil || w2.Res.Program == nil {
		return false, 0
	}
	return w1.Res.Program.Equal(w2.Res.Program), float64(w2.Wall) / float64(w1.Wall)
}
