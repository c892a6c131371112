package main

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"sortsynth/internal/bench"
	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/kcache"
	"sortsynth/internal/kernels"
	"sortsynth/internal/uarch"
	"sortsynth/internal/universe"
)

// objectiveRow is one shortest-vs-fastest latency measurement in
// BENCH_enum.json: the frozen kernel each objective serves for a given
// n, its cost-model prediction, and its measured wall time over the
// standard random-array batch.
type objectiveRow struct {
	N               int     `json:"n"`
	Objective       string  `json:"objective"`
	Kernel          string  `json:"kernel"`
	Instructions    int     `json:"instructions"`
	ModelThroughput float64 `json:"model_throughput"`
	WallMS          float64 `json:"wall_ms"`
}

// frozenFor resolves the kernel a serving objective inlines for n:
// shortest is the first-pick (the program the shortest search surfaces
// first), fastest is the model-best pick — the same split sortgen uses.
func frozenFor(n int, objective string) (kernels.Kernel, error) {
	if objective == "shortest" {
		k, ok := kernels.FirstPick(n)
		if !ok {
			return kernels.Kernel{}, fmt.Errorf("no frozen first-pick kernel for n=%d", n)
		}
		return k, nil
	}
	for _, k := range kernels.Contenders(n) {
		if k.Name == "enum" {
			return k, nil
		}
	}
	return kernels.Kernel{}, fmt.Errorf("no frozen model-best kernel for n=%d", n)
}

func init() {
	register("objective", "shortest-vs-fastest measured kernel latency (updates the objective rows of BENCH_enum.json)", false, func(c *ctx) error {
		c.section("Ranking objectives: measured latency of the served kernels")

		rep, err := loadBenchReport()
		if err != nil {
			return fmt.Errorf("read committed BENCH_enum.json: %w", err)
		}

		var rows []objectiveRow
		var t tableWriter
		t.row("n", "objective", "kernel", "instr", "model tp", "measured")
		for _, n := range []int{3, 4, 5} {
			inputs := bench.RandomArrays(n, 4096, 10000, 11)
			for _, objective := range []string{"shortest", "fastest"} {
				k, err := frozenFor(n, objective)
				if err != nil {
					return err
				}
				a := uarch.Analyze(k.Set, k.Prog)
				d := bench.Measure(k.Go, inputs, 400)
				row := objectiveRow{
					N:               n,
					Objective:       objective,
					Kernel:          k.Name,
					Instructions:    len(k.Prog),
					ModelThroughput: a.Throughput,
					WallMS:          float64(d) / float64(time.Millisecond),
				}
				rows = append(rows, row)
				t.row(fmt.Sprint(n), objective, k.Name,
					fmt.Sprint(row.Instructions),
					fmt.Sprintf("%.2f", row.ModelThroughput),
					fmt.Sprintf("%.2fms", row.WallMS))
			}
		}
		t.flush(c.w)
		c.printf("\nBoth picks per n have the same (optimal) length; only the instruction\n")
		c.printf("schedule differs. The model tp column is the gap objective=fastest\n")
		c.printf("optimizes; the measured column records how much of it survives real\n")
		c.printf("hardware (at these sizes the two picks sit within scheduler noise).\n")

		rep.ObjectiveRows = rows
		if err := writeBenchReport(rep); err != nil {
			return err
		}
		c.printf("updated the objective rows of BENCH_enum.json\n")
		return nil
	})

	register("objectivecheck", "objective gate: fastest cost ≤ shortest, distinct cache keys, pre-v3 kernel stores rejected", false, func(c *ctx) error {
		set := isa.NewCmov(3, 1)

		// 1. The fastest pick can never model-cost more than the shortest
		// pick — it is the minimum of the metric the shortest pick is
		// merely one sample of.
		c.section("Fastest vs shortest model cost (cmov n=3)")
		fastOpt := enum.ConfigBest()
		fastOpt.MaxLen = 11
		fastOpt.Objective = enum.ObjectiveFastest
		fastRes := enum.Run(set, fastOpt)
		if fastRes.Err != nil || fastRes.Length < 0 {
			return fmt.Errorf("fastest: %v (length %d)", fastRes.Err, fastRes.Length)
		}
		fastCost := fastRes.Cost
		c.printf("fastest: %d ranked, cost %.3f, length %d, %v\n", fastRes.RerankCandidates, fastCost,
			fastRes.Length, fastRes.Elapsed.Round(time.Millisecond))
		shortOpt := enum.ConfigBest()
		shortOpt.MaxLen = 11
		shortRes := enum.Run(set, shortOpt)
		if shortRes.Err != nil || shortRes.Length < 0 {
			return fmt.Errorf("shortest baseline: %v", shortRes.Err)
		}
		_, shortCost, err := enum.RankPrograms(set, []isa.Program{shortRes.Program}, enum.ObjectiveFastest, "")
		if err != nil {
			return err
		}
		c.printf("model cost: fastest %.3f ≤ shortest pick %.3f: %v\n", fastCost, shortCost, fastCost <= shortCost)
		if fastCost > shortCost {
			return fmt.Errorf("fastest winner costs %.3f, more than the shortest pick's %.3f", fastCost, shortCost)
		}

		// 2. Objectives mint distinct v3 cache keys.
		kShort := kcache.KeyFor(set, shortOpt)
		kFast := kcache.KeyFor(set, fastOpt)
		if kShort.Hash() == kFast.Hash() {
			return fmt.Errorf("shortest and fastest share cache key %s", kShort.Hash())
		}
		c.printf("distinct v3 cache keys: shortest %s, fastest %s\n", kShort.Hash()[:12], kFast.Hash()[:12])

		// 3. Kernel stores written under the pre-v3 key scheme must be
		// rejected loudly, with the remedy in the message — silently
		// remounting them would serve shortest bytes under fastest keys.
		c.section("Stale kernel-store rejection")
		for _, tc := range []struct {
			name string
			prep func(dir string) error
		}{
			{"v2-marked store", func(dir string) error {
				return os.WriteFile(dir+"/KEYVERSION", []byte("2\n"), 0o644)
			}},
			{"unmarked populated store", func(dir string) error {
				return os.WriteFile(dir+"/deadbeef.json", []byte("{}"), 0o644)
			}},
		} {
			dir, err := os.MkdirTemp("", "objcheck")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			if err := tc.prep(dir); err != nil {
				return err
			}
			_, err = kcache.New(dir, 4)
			var stale *kcache.StaleStoreError
			if !errors.As(err, &stale) {
				return fmt.Errorf("%s: kcache.New returned %v, want a StaleStoreError", tc.name, err)
			}
			if !strings.Contains(err.Error(), "re-bake") {
				return fmt.Errorf("%s: rejection %q does not name the remedy (re-bake)", tc.name, err)
			}
			c.printf("%s rejected: %v\n", tc.name, err)
		}

		// 4. The bake plan itself covers the new objective: the default
		// spec universe emits fastest rows for every enum instance, so
		// bakecheck's differential replay (baked == live, byte for byte)
		// extends to them with no extra machinery.
		nFast := 0
		for _, sp := range universe.EnumerateSpecs(universe.Options{}) {
			if sp.Backend == "enum" && sp.Objective == enum.ObjectiveFastest {
				nFast++
			}
		}
		if nFast == 0 {
			return fmt.Errorf("default bake universe contains no fastest specs")
		}
		c.printf("\ndefault bake universe: %d enum fastest specs (replayed by -table=bakecheck)\n", nFast)
		return nil
	})
}
