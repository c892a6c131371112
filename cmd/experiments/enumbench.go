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

// enumBenchReport is the BENCH_enum.json payload.
type enumBenchReport struct {
	GOMAXPROCS   int                       `json:"gomaxprocs"`
	Measurements []bench.SearchMeasurement `json:"measurements"`

	// ObjectiveRows are the shortest-vs-fastest kernel latency rows
	// written by -table=objective. enumbench carries them over unchanged
	// when it regenerates the throughput rows (and vice versa), so the
	// two tables can be re-run independently without clobbering each
	// other's half of the file.
	ObjectiveRows []objectiveRow `json:"objective_rows,omitempty"`
}

// loadBenchReport reads the committed BENCH_enum.json if present; a
// missing file yields a zero report (the writer fills its half).
func loadBenchReport() (enumBenchReport, error) {
	var rep enumBenchReport
	data, err := os.ReadFile("BENCH_enum.json")
	if os.IsNotExist(err) {
		return rep, nil
	}
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(data, &rep)
}

// writeBenchReport writes BENCH_enum.json in the working directory (the
// repository root under `make bench`) so the headline numbers are
// versioned next to the code they measure.
func writeBenchReport(rep enumBenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_enum.json", append(data, '\n'), 0o644)
}

func init() {
	register("enumbench", "synthesis throughput at n=3 and n=4 (writes BENCH_enum.json)", false, func(c *ctx) error {
		c.section("Synthesis throughput, best configuration (III)")

		// Rows are taken with the whole machine available: the search
		// runs on one goroutine, but the garbage collector's background
		// workers use the other procs, so an env-pinned GOMAXPROCS would
		// shift the rows. The previous value is restored when the table
		// finishes.
		prev := runtime.GOMAXPROCS(runtime.NumCPU())
		defer runtime.GOMAXPROCS(prev)

		cases := []struct {
			n, maxLen int
			rounds    int
		}{
			{3, 11, 5},
			{4, 20, 2},
		}

		prevRep, err := loadBenchReport()
		if err != nil {
			return fmt.Errorf("read committed BENCH_enum.json: %w", err)
		}
		rep := enumBenchReport{
			GOMAXPROCS:    runtime.GOMAXPROCS(0),
			ObjectiveRows: prevRep.ObjectiveRows,
		}
		var t tableWriter
		t.row("n", "backend", "wall", "expanded", "expanded/s", "length")
		for _, tc := range cases {
			set := isa.NewCmov(tc.n, 1)
			opt := enum.ConfigBest()
			opt.MaxLen = tc.maxLen
			m, err := bench.MeasureSearch(set, opt, tc.rounds)
			if err != nil {
				return fmt.Errorf("n=%d: %w", tc.n, err)
			}
			rep.Measurements = append(rep.Measurements, m)
			t.row(fmt.Sprint(tc.n), "enum",
				fmt.Sprintf("%.1fms", m.WallMS),
				fmt.Sprint(m.Expanded),
				fmt.Sprintf("%.0f", m.ExpandedPerSec),
				fmt.Sprint(m.Length))
		}
		t.flush(c.w)

		if err := writeBenchReport(rep); err != nil {
			return err
		}
		c.printf("wrote BENCH_enum.json\n")
		return nil
	})
}
