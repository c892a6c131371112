package main

import (
	"fmt"
	"time"

	"sortsynth/internal/bench"
	"sortsynth/internal/kernels"
	"sortsynth/internal/uarch"
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
}
