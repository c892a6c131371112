package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"sortsynth/internal/backend"
	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
)

// SearchMeasurement is one synthesis-throughput data point: a full
// search of the given set, reported in the units the engine comparison
// cares about (wall time and expanded states per second). The kernel
// text is included so callers can check that two measured runs produced
// byte-identical output.
type SearchMeasurement struct {
	ISA string `json:"isa"`
	N   int    `json:"n"`
	// Backend is the registry name that produced the row ("enum" for
	// the direct engine measurements).
	Backend string `json:"backend"`
	// Winner is the racing backend that produced the kernel when
	// Backend is a portfolio; empty otherwise.
	Winner string `json:"winner,omitempty"`
	// GOMAXPROCS is the runtime's parallelism ceiling when this row was
	// measured (recorded per row, not once per report, so a row taken
	// under an env-pinned or host-limited runtime is visible as such).
	GOMAXPROCS     int     `json:"gomaxprocs"`
	MaxLen         int     `json:"max_len"`
	Length         int     `json:"length"`
	Kernel         string  `json:"kernel"`
	Expanded       int64   `json:"expanded"`
	Generated      int64   `json:"generated"`
	WallMS         float64 `json:"wall_ms"`
	ExpandedPerSec float64 `json:"expanded_per_sec"`

	// SWAROffWallMS is the same row re-measured with the SWAR
	// bit-sliced execution layer disabled (Options.DisableSWAR) and
	// SWARSpeedup the scalar/SWAR wall-clock ratio — the enumbench A/B
	// that keeps the layer's payoff versioned next to the code. Zero on
	// rows that did not run the A/B (portfolio rows).
	SWAROffWallMS float64 `json:"swar_off_wall_ms,omitempty"`
	SWARSpeedup   float64 `json:"swar_speedup,omitempty"`
}

// MeasureSearch runs the search rounds times and reports the fastest
// run (search work is deterministic for a fixed configuration, so
// best-of-N isolates scheduler and allocator noise).
func MeasureSearch(set *isa.Set, opt enum.Options, rounds int) (SearchMeasurement, error) {
	if rounds < 1 {
		rounds = 1
	}
	var best *enum.Result
	for r := 0; r < rounds; r++ {
		res := enum.Run(set, opt)
		if res.Err != nil {
			return SearchMeasurement{}, res.Err
		}
		if res.Length < 0 {
			return SearchMeasurement{}, fmt.Errorf("%v: no kernel within %d", set, opt.MaxLen)
		}
		if best == nil || res.Elapsed < best.Elapsed {
			best = res
		}
	}
	m := SearchMeasurement{
		ISA:        set.Kind.String(),
		N:          set.N,
		Backend:    "enum",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		MaxLen:     opt.MaxLen,
		Length:     best.Length,
		Kernel:     best.Program.FormatInline(set.N),
		Expanded:   best.Expanded,
		Generated:  best.Generated,
		WallMS:     float64(best.Elapsed) / float64(time.Millisecond),
	}
	if sec := best.Elapsed.Seconds(); sec > 0 {
		m.ExpandedPerSec = float64(best.Expanded) / sec
	}
	return m, nil
}

// MeasureBackend runs one registry backend through backend.Run rounds
// times and reports the fastest winning run, so BENCH rows produced by
// non-enum backends (including portfolio races) carry the same shape as
// the direct engine measurements. Expanded aggregates the backend's
// Stats.Nodes (expanded states, conflicts, or proposals, per backend).
func MeasureBackend(b backend.Backend, set *isa.Set, spec backend.Spec, timeout time.Duration, rounds int) (SearchMeasurement, error) {
	if rounds < 1 {
		rounds = 1
	}
	var best *backend.Result
	for r := 0; r < rounds; r++ {
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, timeout)
		}
		res, err := backend.Run(ctx, b, set, spec)
		cancel()
		if err != nil {
			return SearchMeasurement{}, err
		}
		if res.Status != backend.StatusFound {
			return SearchMeasurement{}, fmt.Errorf("%v: backend %s: %s (no kernel within %d)",
				set, b.Name(), res.Status, spec.MaxLen)
		}
		if best == nil || res.Stats.Elapsed < best.Stats.Elapsed {
			best = res
		}
	}
	m := SearchMeasurement{
		ISA:        set.Kind.String(),
		N:          set.N,
		Backend:    b.Name(),
		Winner:     best.Winner,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		MaxLen:     spec.MaxLen,
		Length:     best.Length,
		Kernel:     best.Program.FormatInline(set.N),
		Expanded:   best.Stats.Nodes,
		WallMS:     float64(best.Stats.Elapsed) / float64(time.Millisecond),
	}
	if sec := best.Stats.Elapsed.Seconds(); sec > 0 {
		m.ExpandedPerSec = float64(best.Stats.Nodes) / sec
	}
	return m, nil
}
