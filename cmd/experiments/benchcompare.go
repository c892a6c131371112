package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"sortsynth/internal/bench"
	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
)

// regressionThreshold is the wall-clock ratio (fresh / committed) above
// which benchcompare fails a row. 20% absorbs scheduler and thermal
// noise on a loaded host while still catching real engine regressions,
// which historically land at 1.5x or worse.
const regressionThreshold = 1.20

func init() {
	register("benchcompare", "re-measure the enum rows of BENCH_enum.json and fail on a >20% wall-clock regression", false, func(c *ctx) error {
		c.section("Throughput regression gate vs committed BENCH_enum.json")

		data, err := os.ReadFile("BENCH_enum.json")
		if err != nil {
			return fmt.Errorf("benchcompare needs the committed baseline: %w", err)
		}
		var rep enumBenchReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("parse BENCH_enum.json: %w", err)
		}

		// Measure under the same runtime width the baseline rows were
		// taken at (enumbench un-pins GOMAXPROCS the same way).
		prev := runtime.GOMAXPROCS(runtime.NumCPU())
		defer runtime.GOMAXPROCS(prev)

		var t tableWriter
		t.row("n", "committed", "fresh", "ratio", "verdict")
		worst := 0.0
		failed := 0
		for _, m := range rep.Measurements {
			opt := enum.ConfigBest()
			opt.MaxLen = m.MaxLen
			// Re-measure with the same best-of-N the enumbench table used
			// for this n: the committed number is a minimum over that many
			// rounds, and comparing a smaller-sample minimum against it
			// would bias every ratio above 1.
			rounds := 2
			if m.N <= 3 {
				rounds = 5
			}
			fresh, err := bench.MeasureSearch(isa.NewCmov(m.N, 1), opt, rounds)
			if err != nil {
				return fmt.Errorf("n=%d: %w", m.N, err)
			}
			ratio := fresh.WallMS / m.WallMS
			verdict := "ok"
			if ratio > regressionThreshold {
				verdict = "REGRESSION"
				failed++
			}
			if ratio > worst {
				worst = ratio
			}
			t.row(fmt.Sprint(m.N),
				fmt.Sprintf("%.1fms", m.WallMS),
				fmt.Sprintf("%.1fms", fresh.WallMS),
				fmt.Sprintf("%.2f", ratio), verdict)
		}
		t.flush(c.w)
		c.printf("\nworst fresh/committed wall-clock ratio: %.2f (threshold %.2f)\n",
			worst, regressionThreshold)
		if failed > 0 {
			return fmt.Errorf("%d enum row(s) regressed beyond %.0f%%; "+
				"if intentional, regenerate the baseline with -table=enumbench",
				failed, (regressionThreshold-1)*100)
		}
		return nil
	})
}
