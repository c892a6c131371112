package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"sortsynth/internal/backend"
	"sortsynth/internal/bench"
	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/stoke"
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
	register("enumbench", "synthesis throughput at n=3 and n=4, SWAR on and off (writes BENCH_enum.json)", false, func(c *ctx) error {
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
		t.row("n", "backend", "wall", "swar off", "swar x", "expanded", "expanded/s", "length")
		for _, tc := range cases {
			set := isa.NewCmov(tc.n, 1)
			opt := enum.ConfigBest()
			opt.MaxLen = tc.maxLen
			m, err := bench.MeasureSearch(set, opt, tc.rounds)
			if err != nil {
				return fmt.Errorf("n=%d: %w", tc.n, err)
			}
			// SWAR A/B: the same row with the bit-sliced layer off. The
			// kernels must match byte for byte (swar-check proves the
			// full equivalence; this is the cheap tripwire on the
			// measured runs themselves).
			optOff := opt
			optOff.DisableSWAR = true
			mOff, err := bench.MeasureSearch(set, optOff, tc.rounds)
			if err != nil {
				return fmt.Errorf("n=%d swar off: %w", tc.n, err)
			}
			if mOff.Kernel != m.Kernel {
				return fmt.Errorf("n=%d: SWAR and scalar runs produced different kernels:\n  swar   %s\n  scalar %s",
					tc.n, m.Kernel, mOff.Kernel)
			}
			m.SWAROffWallMS = mOff.WallMS
			if m.WallMS > 0 {
				m.SWARSpeedup = mOff.WallMS / m.WallMS
			}
			rep.Measurements = append(rep.Measurements, m)
			t.row(fmt.Sprint(tc.n), "enum",
				fmt.Sprintf("%.1fms", m.WallMS),
				fmt.Sprintf("%.1fms", m.SWAROffWallMS),
				fmt.Sprintf("%.2f", m.SWARSpeedup),
				fmt.Sprint(m.Expanded),
				fmt.Sprintf("%.0f", m.ExpandedPerSec),
				fmt.Sprint(m.Length))
		}
		// Portfolio row: enum races stoke at n=3. The enum engine is
		// deterministic and wins well before the chain gets lucky, so the
		// row (winner, kernel, length) regenerates identically run to run;
		// only the wall time and the loser's proposal count wiggle.
		pf := backend.NewPortfolio(
			backend.NewEnum(enum.ConfigBest()),
			backend.NewStoke(stoke.Options{}),
		)
		pm, err := bench.MeasureBackend(pf, isa.NewCmov(3, 1),
			backend.Spec{MaxLen: 11, Seed: 1}, time.Minute, 3)
		if err != nil {
			return fmt.Errorf("portfolio n=3: %w", err)
		}
		rep.Measurements = append(rep.Measurements, pm)
		t.row("3", fmt.Sprintf("race(%d)", len(pf.Backends())),
			fmt.Sprintf("%.1fms", pm.WallMS), "-", "-",
			fmt.Sprint(pm.Expanded),
			fmt.Sprintf("%.0f", pm.ExpandedPerSec),
			fmt.Sprint(pm.Length))

		t.flush(c.w)
		c.printf("\nportfolio (enum vs stoke) winner at n=3: %s\n", pm.Winner)

		if err := writeBenchReport(rep); err != nil {
			return err
		}
		c.printf("wrote BENCH_enum.json\n")
		return nil
	})
}
