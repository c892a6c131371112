package uarch_test

import (
	"testing"

	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/sortnet"
	"sortsynth/internal/uarch"
)

func TestScoreWeights(t *testing.T) {
	p, err := isa.ParseProgram("mov s1 r1; cmp r1 r2; cmovl r1 r2; cmovg r2 s1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := uarch.Score(p); got != 1+2+4+4 {
		t.Errorf("Score = %d, want 11", got)
	}
}

func TestCriticalPathChainVsParallel(t *testing.T) {
	set := isa.NewCmov(4, 1)
	// Serial chain: each cmp depends on the previous cmov's result.
	chain, _ := isa.ParseProgram("cmp r1 r2; cmovg r1 r2; cmp r1 r3; cmovg r1 r3; cmp r1 r4; cmovg r1 r4", 4)
	// Parallel: two independent chains.
	par, _ := isa.ParseProgram("cmp r1 r2; cmovg r1 r2; cmp r3 r4; cmovg r3 r4", 4)
	if cp := uarch.CriticalPath(set, chain); cp != 6 {
		t.Errorf("chain critical path = %d, want 6", cp)
	}
	if cp := uarch.CriticalPath(set, par); cp != 2 {
		t.Errorf("parallel critical path = %d, want 2", cp)
	}
}

func TestMovEliminated(t *testing.T) {
	set := isa.NewCmov(2, 1)
	p, _ := isa.ParseProgram("mov s1 r1; mov r1 r2; mov r2 s1", 2)
	if cp := uarch.CriticalPath(set, p); cp != 0 {
		t.Errorf("mov-only critical path = %d, want 0 (rename elimination)", cp)
	}
	a := uarch.Analyze(set, p)
	if a.Uops != 0 || a.Instructions != 3 {
		t.Errorf("Analyze = %+v, want 0 uops / 3 instructions", a)
	}
}

func TestThroughputOrdering(t *testing.T) {
	// A longer kernel of the same shape must not be faster; a kernel with
	// fewer uops should be at least as fast as its sorting-network
	// superset.
	set := isa.NewCmov(3, 1)
	net := sortnet.Optimal(3).CompileCmov() // 12 instructions
	opt := enum.ConfigBest()
	opt.MaxLen = 11
	res := enum.Run(set, opt)
	if res.Length != 11 {
		t.Fatal("synthesis failed")
	}
	synth := res.Program
	tn, ts := uarch.Throughput(set, net), uarch.Throughput(set, synth)
	if ts > tn+0.5 {
		t.Errorf("synthesized kernel throughput %.2f worse than network %.2f", ts, tn)
	}
	if tn <= 0 || ts <= 0 {
		t.Errorf("throughputs must be positive: %v %v", tn, ts)
	}
}

func TestMinMaxBeatsCmovModel(t *testing.T) {
	// §5.4: min/max kernels are faster than cmov kernels. The model must
	// reproduce the direction: fewer instructions and no flag bottleneck.
	cset := isa.NewCmov(3, 1)
	mset := isa.NewMinMax(3, 1)
	cm := uarch.Analyze(cset, sortnet.Optimal(3).CompileCmov())
	mm := uarch.Analyze(mset, sortnet.Optimal(3).CompileMinMax())
	if mm.Throughput >= cm.Throughput {
		t.Errorf("minmax throughput %.2f not better than cmov %.2f", mm.Throughput, cm.Throughput)
	}
	if mm.CriticalPath > cm.CriticalPath {
		t.Errorf("minmax critical path %d worse than cmov %d", mm.CriticalPath, cm.CriticalPath)
	}
}

func TestSynthesizedMinMaxHasBetterDependenceStructure(t *testing.T) {
	// §5.4: uiCA showed the synthesized min/max kernel has a better
	// dependence structure (more ILP) than the network implementation.
	set := isa.NewMinMax(3, 1)
	opt := enum.ConfigBest()
	opt.MaxLen = 8
	res := enum.Run(set, opt)
	if res.Length != 8 {
		t.Fatal("synthesis failed")
	}
	syn := uarch.Analyze(set, res.Program)
	net := uarch.Analyze(set, sortnet.Optimal(3).CompileMinMax())
	if syn.ILP < net.ILP {
		t.Errorf("synthesized ILP %.2f below network ILP %.2f", syn.ILP, net.ILP)
	}
	if syn.Throughput > net.Throughput {
		t.Errorf("synthesized throughput %.2f worse than network %.2f", syn.Throughput, net.Throughput)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	set := isa.NewCmov(2, 1)
	a := uarch.Analyze(set, nil)
	if a.Instructions != 0 || a.Throughput != 0 || a.CriticalPath != 0 {
		t.Errorf("uarch.Analyze(nil) = %+v", a)
	}
}

func TestThroughputDeterministic(t *testing.T) {
	set := isa.NewCmov(3, 1)
	p := sortnet.Optimal(3).CompileCmov()
	if uarch.Throughput(set, p) != uarch.Throughput(set, p) {
		t.Error("Throughput not deterministic")
	}
}

func TestAnalyzeAllocations(t *testing.T) {
	set := isa.NewCmov(3, 1)
	p, err := isa.ParseProgram("cmp r1 r2; mov s1 r1; cmovg r1 r2; cmovg r2 s1; cmp r2 r3; mov s1 r3; cmovg r3 r2; cmovg r2 s1; cmp r1 s1; cmovg r1 s1; cmovg s1 r1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { uarch.Analyze(set, p) }); n > 2 {
		t.Errorf("Analyze allocates %.0f times per call, want ≤ 2", n)
	}
}
