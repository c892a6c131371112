package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"sortsynth/internal/bench"
	"sortsynth/internal/kernels"
	"sortsynth/internal/uarch"
)

// objectiveRow is one shortest-vs-fastest latency measurement in
// BENCH_enum.json: the frozen kernel each objective serves for a given
// n, its cost-model prediction, and its measured wall time over the
// standard random-array batch (400 rounds over 4,096 arrays): the
// median of Repeats batches, with their median absolute deviation as
// the spread.
type objectiveRow struct {
	N               int     `json:"n"`
	Objective       string  `json:"objective"`
	Kernel          string  `json:"kernel"`
	Instructions    int     `json:"instructions"`
	ModelThroughput float64 `json:"model_throughput"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Repeats         int     `json:"repeats"`
	WallMS          float64 `json:"wall_ms"`
	WallMADMS       float64 `json:"wall_mad_ms"`
}

// objectiveRepeats is the number of timed batches per kernel; the
// kernels of one n alternate batch by batch.
const objectiveRepeats = 7

// medianMAD returns the median of xs and the median absolute deviation
// from it.
func medianMAD(xs []float64) (median, mad float64) {
	med := func(v []float64) float64 {
		v = slices.Clone(v)
		slices.Sort(v)
		if n := len(v); n%2 == 0 {
			return (v[n/2-1] + v[n/2]) / 2
		}
		return v[len(v)/2]
	}
	median = med(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - median)
	}
	return median, med(dev)
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
		t.row("n", "objective", "kernel", "instr", "model tp", "measured (median ± MAD)")
		objectives := []string{"shortest", "fastest"}
		for _, n := range []int{3, 4, 5} {
			inputs := bench.RandomArrays(n, 4096, 10000, 11)
			ks := make([]kernels.Kernel, len(objectives))
			walls := make([][]float64, len(objectives))
			for i, objective := range objectives {
				if ks[i], err = frozenFor(n, objective); err != nil {
					return err
				}
			}
			for r := range objectiveRepeats {
				for j := range objectives {
					i := (j + r) % len(objectives) // alternate which kernel goes first
					d := bench.Measure(ks[i].Go, inputs, 400)
					walls[i] = append(walls[i], float64(d)/float64(time.Millisecond))
				}
			}
			for i, objective := range objectives {
				k := ks[i]
				row := objectiveRow{
					N:               n,
					Objective:       objective,
					Kernel:          k.Name,
					Instructions:    len(k.Prog),
					ModelThroughput: uarch.Analyze(k.Set, k.Prog).Throughput,
					GOMAXPROCS:      runtime.GOMAXPROCS(0),
					Repeats:         objectiveRepeats,
				}
				row.WallMS, row.WallMADMS = medianMAD(walls[i])
				rows = append(rows, row)
				t.row(fmt.Sprint(n), objective, k.Name,
					fmt.Sprint(row.Instructions),
					fmt.Sprintf("%.2f", row.ModelThroughput),
					fmt.Sprintf("%.2f ± %.2fms", row.WallMS, row.WallMADMS))
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
