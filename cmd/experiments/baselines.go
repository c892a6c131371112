package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sortsynth/internal/backend"
	"sortsynth/internal/cp"
	"sortsynth/internal/ilp"
	"sortsynth/internal/isa"
	"sortsynth/internal/mcts"
	"sortsynth/internal/plan"
	"sortsynth/internal/smt"
	"sortsynth/internal/sortnet"
	"sortsynth/internal/stoke"
)

// runVerified drives one configured backend through backend.Run under a
// wall-clock budget. backend.Run is the single verification point for
// every baseline row: a backend claiming an incorrect program surfaces
// as *backend.IncorrectError ("INCORRECT"), so no table below carries
// its own correctness check.
func runVerified(b backend.Backend, set *isa.Set, spec backend.Spec, budget time.Duration) (*backend.Result, string) {
	ctx := context.Background()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	res, err := backend.Run(ctx, b, set, spec)
	if err != nil {
		var inc *backend.IncorrectError
		if errors.As(err, &inc) {
			return nil, "INCORRECT"
		}
		return nil, "error: " + err.Error()
	}
	return res, res.Status.String()
}

func init() {
	register("smt", "§5.2 SMT-based techniques (SAT-backed SMT-PERM / SMT-CEGIS)", false, func(c *ctx) error {
		c.section("SMT-based synthesis, n=2 (always) and n=3 (-slow)")
		var t tableWriter
		t.row("approach", "n", "time", "status", "paper (n=3, Z3)")
		run := func(name string, n, length int, cegis, arbitrary bool, paper string, budget time.Duration) {
			set := isa.NewCmov(n, 1)
			b := backend.NewSMT(smt.Options{Goal: smt.GoalAscCounts0, Encoding: smt.EncodingDense,
				CEGISArbitrary: arbitrary}, cegis)
			res, status := runVerified(b, set, backend.Spec{MaxLen: length}, budget)
			elapsed := "—"
			if res != nil {
				elapsed = ms(res.Stats.Elapsed)
				if cegis {
					status += fmt.Sprintf(" (%d iters)", res.Stats.Iterations)
				}
			}
			t.row(name, fmt.Sprint(n), elapsed, status, "("+paper+")")
		}
		run("SMT-PERM", 2, 4, false, false, "44 min", time.Minute)
		run("SMT-CEGIS (range 1..n)", 2, 4, true, false, "25 min", time.Minute)
		run("SMT-CEGIS (arbitrary)", 2, 4, true, true, "97 min", time.Minute)
		run("SMT-CEGIS (range 1..n)", 3, 11, true, false, "25 min", 4*time.Minute)
		if c.slow {
			run("SMT-PERM", 3, 11, false, false, "44 min", 15*time.Minute)
		}
		t.row("SMT-SyGuS", "3", "—", "not reproduced", "(— with cvc5)")
		t.row("SMT-MetaLift", "3", "—", "not reproduced", "(—)")
		t.flush(c.w)
		c.printf("\nZ3 is replaced by the repository's CDCL SAT core with a one-hot FD layer\n(DESIGN.md §4.1). SyGuS/MetaLift failed in the paper and are external tools.\nEvery row runs through the backend registry; backend.Run verifies each win.\n")
		return nil
	})

	register("cp", "§5.2 constraint programming (FD engine, MiniZinc-style model)", false, func(c *ctx) error {
		c.section("Constraint programming, n=2 (always) and n=3 (-slow)")
		var t tableWriter
		t.row("approach", "n", "time", "status", "paper n=3")
		run := func(name string, n, length int, o cp.Options, paper string, budget time.Duration) {
			set := isa.NewCmov(n, 1)
			res, status := runVerified(backend.NewCP(o), set, backend.Spec{MaxLen: length}, budget)
			elapsed := "—"
			if res != nil {
				elapsed = ms(res.Stats.Elapsed)
			}
			t.row(name, fmt.Sprint(n), elapsed, status, "("+paper+")")
		}
		heur := cp.Options{Goal: cp.GoalAscCounts0, NoConsecutiveCmp: true, CmpSymmetry: true, NoSelfOps: true}
		run("CP (I)+(II), ≤ #0123", 2, 4, heur, "874 ms (Chuffed)", time.Minute)
		if c.slow {
			run("CP (I)+(II), ≤ #0123", 3, 11, heur, "874 ms (Chuffed)", 30*time.Minute)
		}
		t.flush(c.w)
		c.printf("\nGurobi/CBC/Chuffed replaced by the repository FD engine (no clause learning —\nthe feature the paper identifies as Chuffed's edge; see EXPERIMENTS.md T5).\n")
		c.printf("ILP rows: see -table=ilp.\n")
		return nil
	})

	register("cpgoals", "§5.2 MiniZinc goal-formulation and heuristic sensitivity", false, func(c *ctx) error {
		c.section("CP goal formulations × heuristics, n=2 (the paper's table uses n=3/Chuffed)")
		var t tableWriter
		t.row("goal", "heuristics", "time", "nodes", "paper n=3")
		run := func(goalName string, goal cp.Goal, heurName string, o cp.Options, paper string) {
			o.Goal = goal
			set := isa.NewCmov(2, 1)
			res, status := runVerified(backend.NewCP(o), set, backend.Spec{MaxLen: 4}, time.Minute)
			cell, nodes := status, "—"
			if res != nil {
				cell = ms(res.Stats.Elapsed)
				if res.Status != backend.StatusFound {
					cell += " (none)"
				}
				nodes = fmt.Sprint(res.Stats.Nodes)
			}
			t.row(goalName, heurName, cell, nodes, "("+paper+")")
		}
		run("=123", cp.GoalExact, "—", cp.Options{}, "247 s")
		run("≤,#0123", cp.GoalAscCounts0, "—", cp.Options{}, "232 s")
		run("≤,#0123", cp.GoalAscCounts0, "(I)", cp.Options{NoConsecutiveCmp: true}, "10 s")
		run("≤,#0123", cp.GoalAscCounts0, "(II)", cp.Options{CmpSymmetry: true}, "68 s")
		run("≤,#0123", cp.GoalAscCounts0, "(I)+(II)", cp.Options{NoConsecutiveCmp: true, CmpSymmetry: true}, "874 ms")
		run("=123", cp.GoalExact, "(I)+(II)", cp.Options{NoConsecutiveCmp: true, CmpSymmetry: true}, "70 s")
		run("≤,#0123,=123", cp.GoalAscExact, "(I)+(II)", cp.Options{NoConsecutiveCmp: true, CmpSymmetry: true}, "119 s")
		run("≤,#123", cp.GoalAscCounts, "(I)+(II)", cp.Options{NoConsecutiveCmp: true, CmpSymmetry: true}, "30 s")
		run("≤,#0123", cp.GoalAscCounts0, "(I)+(II), cmd[0]=cmp", cp.Options{NoConsecutiveCmp: true, CmpSymmetry: true, FirstIsCmp: true}, "64 s")
		t.flush(c.w)
		return nil
	})

	register("ilp", "§5.2 CP-ILP big-M formulation (expected to fail beyond n=2)", false, func(c *ctx) error {
		c.section("ILP (big-M, branch & bound)")
		var t tableWriter
		t.row("n", "length", "time", "status", "nodes", "paper")
		for _, tc := range []struct {
			n, length int
			nodes     int64
			paper     string
		}{
			{2, 4, 5_000_000, "(n=3: — for all ILP rows)"},
			{3, 11, 300_000, "(—)"},
		} {
			set := isa.NewCmov(tc.n, 1)
			b := backend.NewILP(ilp.Options{MaxNodes: tc.nodes})
			res, status := runVerified(b, set, backend.Spec{MaxLen: tc.length}, 2*time.Minute)
			elapsed, nodes := "—", "—"
			if res != nil {
				elapsed, nodes = ms(res.Stats.Elapsed), fmt.Sprint(res.Stats.Nodes)
			}
			t.row(fmt.Sprint(tc.n), fmt.Sprint(tc.length), elapsed, status, nodes, tc.paper)
		}
		t.flush(c.w)
		return nil
	})

	register("stoke", "§5.2 stochastic search (Stoke-style MCMC)", false, func(c *ctx) error {
		c.section("Stochastic superoptimization, n=3 (paper: all rows fail)")
		var t tableWriter
		t.row("mode", "tests", "time", "status", "proposals")
		net := sortnet.Optimal(3).CompileCmov()
		set := isa.NewCmov(3, 1)
		run := func(name string, length int, seed int64, o stoke.Options) {
			o.MaxProposals = 2_000_000
			res, status := runVerified(backend.NewStoke(o), set,
				backend.Spec{MaxLen: length, Seed: seed}, 2*time.Minute)
			elapsed, props := "—", "—"
			if res != nil {
				elapsed, props = ms(res.Stats.Elapsed), fmt.Sprint(res.Stats.Nodes)
				if res.Status == backend.StatusFound {
					status = fmt.Sprintf("found len %d", res.Length)
				}
			}
			t.row(name, fmt.Sprint(max(o.TestSubset, 6)), elapsed, status, props)
		}
		run("cold, permutation suite", 11, 1, stoke.Options{})
		run("cold, random subset", 11, 2, stoke.Options{TestSubset: 3})
		run("warm, network start (len 11)", 11, 3, stoke.Options{Warm: net[:11]})
		run("warm, network start (len 12)", 12, 4, stoke.Options{Warm: net})
		t.flush(c.w)
		c.printf("\nPaper: Stoke synthesizes nothing for n=3 in any mode; a warm start at the\nnetwork's own length 12 trivially keeps the seed. Finding a length-11 kernel\nby MCMC mirrors the paper's negative result.\n")
		return nil
	})

	register("plan", "§5.2 planning approaches", false, func(c *ctx) error {
		c.section("Planning, n=3 (paper: fast-downward —, LAMA 3.54 s, Scorpion 679 s)")
		var t tableWriter
		t.row("configuration", "time", "plan length", "status", "paper analogue")
		set := isa.NewCmov(3, 1)
		run := func(name string, o plan.Options, paper string) {
			// Spec.MaxLen 0: the satisficing planners return correct but
			// non-minimal kernels, and the table reports their length.
			res, status := runVerified(backend.NewPlan(o), set, backend.Spec{}, 2*time.Minute)
			elapsed, length := "—", "—"
			if res != nil {
				elapsed = ms(res.Stats.Elapsed)
				if res.Status == backend.StatusFound {
					length = fmt.Sprint(res.Length)
				}
			}
			t.row(name, elapsed, length, status, "("+paper+")")
		}
		run("GBFS + goal count", plan.Options{Algorithm: plan.GBFS, Heuristic: plan.GoalCount, MaxNodes: 300_000}, "fast-downward: —")
		run("GBFS + h_add", plan.Options{Algorithm: plan.GBFS, Heuristic: plan.HAdd, MaxNodes: 300_000}, "LAMA: 3.54 s")
		run("GBFS + h_add, serialized", plan.Options{Algorithm: plan.GBFS, Heuristic: plan.HAdd, Serialize: true, MaxNodes: 300_000}, "LAMA seq: 3.86 s")
		run("A* + goal count", plan.Options{Algorithm: plan.AStar, Heuristic: plan.GoalCount, MaxNodes: 2_000_000}, "Scorpion: 679 s")
		t.flush(c.w)
		return nil
	})

	register("mcts", "AlphaDev-style MCTS baseline (no learned guidance)", false, func(c *ctx) error {
		c.section("MCTS (UCT, random rollouts)")
		var t tableWriter
		t.row("n", "max len", "time", "status", "iterations")
		for _, tc := range []struct {
			n, maxLen int
			iters     int64
		}{
			{2, 6, 200_000},
			{3, 14, 600_000},
		} {
			set := isa.NewCmov(tc.n, 1)
			b := backend.NewMCTS(mcts.Options{Iterations: tc.iters})
			res, status := runVerified(b, set, backend.Spec{MaxLen: tc.maxLen, Seed: 1}, 2*time.Minute)
			elapsed, iters := "—", "—"
			if res != nil {
				elapsed, iters = ms(res.Stats.Elapsed), fmt.Sprint(res.Stats.Iterations)
				if res.Status == backend.StatusFound {
					status = fmt.Sprintf("found len %d", res.Length)
				}
			}
			t.row(fmt.Sprint(tc.n), fmt.Sprint(tc.maxLen), elapsed, status, iters)
		}
		t.flush(c.w)
		c.printf("\nAlphaDev couples this search with learned policy/value networks; bare UCT\nstalling on n=3 is the expected shape of the substitution (DESIGN.md §4.4).\n")
		return nil
	})
}
