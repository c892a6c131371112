// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation. Mapping (see DESIGN.md §3):
//
//	T1  BenchmarkTableSearchSpace        §5.1 program-space table
//	T3  BenchmarkSynthesisBestN3/N4(/N5) §5.2 headline synthesis times
//	T4  BenchmarkSMT*                    §5.2 SMT table
//	T5  BenchmarkCPSynthN2               §5.2 CP table
//	T6  BenchmarkCPGoal/*                §5.2 goal-formulation table
//	T5  BenchmarkILPSynthN2              §5.2 ILP rows
//	T7  BenchmarkStokeColdN2             §5.2 stochastic search
//	T8  BenchmarkPlan*                   §5.2 planning table
//	T9  BenchmarkEnumAblation/*          §5.2 enum ablation
//	T10 BenchmarkCutK/*                  §5.2 cut-constant table
//	T11 BenchmarkKernelStandaloneN3/*    §5.3 standalone kernels n=3
//	T12 BenchmarkKernelQuicksortN3/*     §5.3 quicksort-embedded n=3
//	T13 BenchmarkKernelMergesortN3/*     §5.3 mergesort-embedded n=3
//	T14 BenchmarkKernelStandaloneN4/*    §5.3 n=4 tables
//	T15 BenchmarkKernelStandaloneN5/*    §5.3 n=5 table
//	T16 BenchmarkAllSolutionsN3          §5.1/§5.3 solution-space enumeration
//	T17 BenchmarkLowerBoundProofN3       §5.3 minimality by exhaustion
//	T18 BenchmarkMinMaxSynthesis/*       §5.4 min/max kernels
//	F1  BenchmarkFigure1TraceN4          Figure 1 search trace
//	F2  BenchmarkFigure2TSNE             Figure 2 embedding
//
// Absolute times are machine-specific; EXPERIMENTS.md records the
// paper-vs-measured comparison, and cmd/experiments renders the tables.
package sortsynth_test

import (
	"testing"

	"sortsynth/internal/bench"
	"sortsynth/internal/cp"
	"sortsynth/internal/enum"
	"sortsynth/internal/ilp"
	"sortsynth/internal/isa"
	"sortsynth/internal/kernels"
	"sortsynth/internal/mcts"
	"sortsynth/internal/plan"
	"sortsynth/internal/smt"
	"sortsynth/internal/sortnet"
	"sortsynth/internal/stoke"
	"sortsynth/internal/tsne"
)

// --- T1 ---------------------------------------------------------------

func BenchmarkTableSearchSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, tc := range []struct{ n, m, l int }{{3, 1, 11}, {4, 1, 20}, {5, 1, 33}, {6, 2, 45}} {
			_ = isa.NewCmov(tc.n, tc.m).RawProgramSpaceLog10(tc.l)
		}
	}
}

// --- T3 ---------------------------------------------------------------

func benchSynthBest(b *testing.B, n, bound int) {
	set := isa.NewCmov(n, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := enum.ConfigBest()
		opt.MaxLen = bound
		if res := enum.Run(set, opt); res.Length != bound {
			b.Fatalf("length %d, want %d", res.Length, bound)
		}
	}
}

func BenchmarkSynthesisBestN3(b *testing.B) { benchSynthBest(b, 3, 11) }
func BenchmarkSynthesisBestN4(b *testing.B) { benchSynthBest(b, 4, 20) }

// --- T9 ---------------------------------------------------------------

func BenchmarkEnumAblation(b *testing.B) {
	set := isa.NewCmov(3, 1)
	configs := []struct {
		name string
		opt  func() enum.Options
	}{
		{"base", func() enum.Options { o := enum.ConfigBase(); o.MaxLen = 11; return o }},
		{"permcount", func() enum.Options {
			o := enum.ConfigBase()
			o.MaxLen = 11
			o.Heuristic = enum.HeurPermCount
			return o
		}},
		{"asgcount", func() enum.Options {
			o := enum.ConfigBase()
			o.MaxLen = 11
			o.Heuristic = enum.HeurAsgCount
			return o
		}},
		{"distmax", func() enum.Options {
			o := enum.ConfigBase()
			o.MaxLen = 11
			o.Heuristic = enum.HeurDistMax
			o.UseDistPrune = true
			return o
		}},
		{"cut1", func() enum.Options {
			o := enum.ConfigBase()
			o.MaxLen = 11
			o.Cut, o.CutK = enum.CutFactor, 1
			return o
		}},
		{"best", func() enum.Options { o := enum.ConfigBest(); o.MaxLen = 11; return o }},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := enum.Run(set, cfg.opt()); res.Length != 11 {
					b.Fatalf("length %d", res.Length)
				}
			}
		})
	}
}

// --- T10 --------------------------------------------------------------

func BenchmarkCutK(b *testing.B) {
	set := isa.NewCmov(3, 1)
	for _, k := range []float64{1, 1.5, 2} {
		b.Run(name("k", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := enum.ConfigBest()
				o.MaxLen = 11
				o.Cut, o.CutK = enum.CutFactor, k
				if res := enum.Run(set, o); res.Length != 11 {
					b.Fatal("synthesis failed")
				}
			}
		})
	}
}

func name(prefix string, k float64) string {
	if k == float64(int(k)) {
		return prefix + "=" + string(rune('0'+int(k)))
	}
	return prefix + "=1.5"
}

// --- T4 ---------------------------------------------------------------

func BenchmarkSMTPermN2(b *testing.B) {
	set := isa.NewCmov(2, 1)
	for i := 0; i < b.N; i++ {
		res := smt.SynthPerm(set, smt.Options{Length: 4, Goal: smt.GoalAscCounts0, Encoding: smt.EncodingDense})
		if res.Status != smt.Found {
			b.Fatal("SMT-PERM failed")
		}
	}
}

func BenchmarkSMTCegisN2(b *testing.B) {
	set := isa.NewCmov(2, 1)
	for i := 0; i < b.N; i++ {
		res := smt.SynthCEGIS(set, smt.Options{Length: 4, Goal: smt.GoalAscCounts0, Encoding: smt.EncodingDense})
		if res.Status != smt.Found {
			b.Fatal("SMT-CEGIS failed")
		}
	}
}

// --- T5/T6 ------------------------------------------------------------

func BenchmarkCPSynthN2(b *testing.B) {
	set := isa.NewCmov(2, 1)
	for i := 0; i < b.N; i++ {
		res := cp.Synthesize(set, cp.Options{
			Length: 4, Goal: cp.GoalAscCounts0,
			NoConsecutiveCmp: true, CmpSymmetry: true, NoSelfOps: true,
		})
		if res.Program == nil {
			b.Fatal("CP failed")
		}
	}
}

func BenchmarkCPGoal(b *testing.B) {
	set := isa.NewCmov(2, 1)
	for _, tc := range []struct {
		name string
		goal cp.Goal
	}{
		{"exact", cp.GoalExact},
		{"asc_counts0", cp.GoalAscCounts0},
		{"asc_counts", cp.GoalAscCounts},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := cp.Synthesize(set, cp.Options{Length: 4, Goal: tc.goal, CmpSymmetry: true, NoConsecutiveCmp: true})
				if res.Program == nil {
					b.Fatal("CP failed")
				}
			}
		})
	}
}

func BenchmarkILPSynthN2(b *testing.B) {
	set := isa.NewCmov(2, 1)
	for i := 0; i < b.N; i++ {
		res := ilp.Synthesize(set, ilp.Options{Length: 4, MaxNodes: 5_000_000})
		if res.Program == nil {
			b.Fatal("ILP failed")
		}
	}
}

// --- T7 ---------------------------------------------------------------

func BenchmarkStokeColdN2(b *testing.B) {
	set := isa.NewCmov(2, 1)
	for i := 0; i < b.N; i++ {
		res := stoke.Run(set, stoke.Options{Length: 4, Seed: int64(i + 1), MaxProposals: 2_000_000})
		if res.Program == nil {
			b.Fatal("stoke cold failed on n=2")
		}
	}
}

// --- T8 ---------------------------------------------------------------

func BenchmarkPlanAStarN2(b *testing.B) {
	set := isa.NewCmov(2, 1)
	prob := plan.Encode(set, nil)
	for i := 0; i < b.N; i++ {
		if res := plan.Solve(prob, plan.Options{Algorithm: plan.AStar, Heuristic: plan.GoalCount}); res.Plan == nil {
			b.Fatal("no plan")
		}
	}
}

func BenchmarkPlanLAMAStyleN3(b *testing.B) {
	set := isa.NewCmov(3, 1)
	prob := plan.Encode(set, nil)
	for i := 0; i < b.N; i++ {
		res := plan.Solve(prob, plan.Options{Algorithm: plan.GBFS, Heuristic: plan.HAdd, MaxNodes: 400_000})
		if res.Plan == nil {
			b.Fatal("no plan")
		}
	}
}

func BenchmarkMCTSN2(b *testing.B) {
	set := isa.NewCmov(2, 1)
	for i := 0; i < b.N; i++ {
		res := mcts.Run(set, mcts.Options{MaxLen: 6, Seed: int64(i + 1), Iterations: 500_000})
		if res.Program == nil {
			b.Fatal("MCTS failed on n=2")
		}
	}
}

// --- T11–T15: kernel runtime tables ------------------------------------

func benchKernels(b *testing.B, n int, embed string) {
	for _, k := range kernels.Contenders(n) {
		b.Run(k.Name, func(b *testing.B) {
			switch embed {
			case "":
				inputs := bench.RandomArrays(n, 1024, 10000, 42)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bench.Measure(k.Go, inputs, 1)
				}
			case "quick", "merge":
				list := bench.RandomList(20000, 7)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if embed == "quick" {
						bench.MeasureSort(func(a []int) { bench.Quicksort(a, n, k.Go) }, list, 1)
					} else {
						bench.MeasureSort(func(a []int) { bench.Mergesort(a, n, k.Go) }, list, 1)
					}
				}
			}
		})
	}
}

func BenchmarkKernelStandaloneN3(b *testing.B) { benchKernels(b, 3, "") }
func BenchmarkKernelQuicksortN3(b *testing.B)  { benchKernels(b, 3, "quick") }
func BenchmarkKernelMergesortN3(b *testing.B)  { benchKernels(b, 3, "merge") }
func BenchmarkKernelStandaloneN4(b *testing.B) { benchKernels(b, 4, "") }
func BenchmarkKernelQuicksortN4(b *testing.B)  { benchKernels(b, 4, "quick") }
func BenchmarkKernelStandaloneN5(b *testing.B) { benchKernels(b, 5, "") }

// --- T16 --------------------------------------------------------------

func BenchmarkAllSolutionsN3(b *testing.B) {
	set := isa.NewCmov(3, 1)
	for i := 0; i < b.N; i++ {
		o := enum.ConfigAllSolutions()
		o.MaxLen = 11
		o.MaxSolutions = 1
		if res := enum.Run(set, o); res.SolutionCount != 5602 {
			b.Fatalf("solutions = %d", res.SolutionCount)
		}
	}
}

// --- T17 --------------------------------------------------------------

func BenchmarkLowerBoundProofN3(b *testing.B) {
	set := isa.NewCmov(3, 1)
	for i := 0; i < b.N; i++ {
		res := enum.Run(set, enum.ConfigProof(10))
		if !res.Proof || res.Length != -1 {
			b.Fatal("proof failed")
		}
	}
}

// --- T18 --------------------------------------------------------------

func BenchmarkMinMaxSynthesis(b *testing.B) {
	for _, tc := range []struct{ n, bound int }{{3, 8}, {4, 15}} {
		b.Run(name("n", float64(tc.n)), func(b *testing.B) {
			set := isa.NewMinMax(tc.n, 1)
			for i := 0; i < b.N; i++ {
				o := enum.ConfigBest()
				o.MaxLen = tc.bound
				if res := enum.Run(set, o); res.Length != tc.bound {
					b.Fatalf("length %d", res.Length)
				}
			}
		})
	}
}

func BenchmarkMinMaxKernelRuntime(b *testing.B) {
	// §5.4 runtime comparison: min/max vs cmov vs network, n=3.
	inputs := bench.RandomArrays(3, 1024, 10000, 11)
	var minmaxGo, enumGo func([]int)
	for _, k := range kernels.Contenders(3) {
		switch k.Name {
		case "sort3_minmax":
			minmaxGo = k.Go
		case "enum":
			enumGo = k.Go
		}
	}
	netProg := sortnet.Optimal(3).CompileMinMax()
	netGo := kernels.Interpreted(isa.NewMinMax(3, 1), netProg)
	for _, tc := range []struct {
		name string
		fn   func([]int)
	}{
		{"minmax_synth", minmaxGo},
		{"cmov_synth", enumGo},
		{"minmax_network_interp", netGo},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench.Measure(tc.fn, inputs, 1)
			}
		})
	}
}

// --- F1/F2 ------------------------------------------------------------

func BenchmarkFigure1TraceN4(b *testing.B) {
	set := isa.NewCmov(4, 1)
	for i := 0; i < b.N; i++ {
		o := enum.ConfigAllSolutions()
		o.MaxLen = 20
		o.Cut, o.CutK = enum.CutFactor, 1
		o.StateBudget = 200_000
		o.MaxSolutions = 1
		o.Trace = &enum.Trace{SampleEvery: 1024}
		res := enum.Run(set, o)
		if len(o.Trace.Samples) == 0 {
			b.Fatal("no trace samples")
		}
		_ = res
	}
}

func BenchmarkFigure2TSNE(b *testing.B) {
	set := isa.NewCmov(3, 1)
	o := enum.ConfigAllSolutions()
	o.MaxLen = 11
	o.Cut, o.CutK = enum.CutFactor, 1 // 234 solutions: a fast, fixed corpus
	res := enum.Run(set, o)
	ids := make([][]int, len(res.Programs))
	for i, p := range res.Programs {
		row := make([]int, len(p))
		for t, in := range p {
			row[t] = set.InstrID(in)
		}
		ids[i] = row
	}
	feats := tsne.ProgramFeatures(ids, set.NumInstrs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tsne.Embed(feats, tsne.Options{Perplexity: 30, Iterations: 100, Seed: 70})
	}
}
