package main

import (
	"encoding/json"
	"fmt"
	"time"

	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
)

// swarcheck is the SWAR execution-layer equivalence gate (DESIGN.md
// §15): across a cut × suite matrix, a run with the SWAR bit-sliced
// kernels must be byte-identical to the scalar run in everything the
// search computes — the enumerated program set, the exact solution
// count, and every effort counter. Any divergence fails the process,
// which is what lets DisableSWAR stay out of the kernel-cache keys.

func init() {
	register("swarcheck", "prove SWAR and scalar execution byte-identical (programs, solution counts, all counters) across cut modes and test suites (nonzero exit on divergence)", false, func(c *ctx) error {
		// The cut toggles between the cases so both the cut and no-cut
		// engine paths (pre-apply skip, fused prune, recount) run under
		// SWAR and scalar; n=3 keeps the uncut tree affordable, n=4 is
		// the machine the committed benchmarks anchor; the minmax
		// dupsafe case covers the other ISA and the multi-tag
		// weak-order suite, whose goal check takes the scalar
		// fallback inside the SWAR layer.
		cases := []struct {
			name    string
			set     *isa.Set
			dupsafe bool
			cut     bool
		}{
			{"cmov n=3 cut=none", isa.NewCmov(3, 1), false, false},
			{"cmov n=4 cut=best", isa.NewCmov(4, 1), false, true},
			{"minmax n=3 dupsafe cut=best", isa.NewMinMax(3, 2), true, true},
		}
		tw := &tableWriter{}
		tw.row("case", "swar", "len", "solutions", "expanded", "generated", "pruned", "cut", "deduped", "wall")
		fail := 0
		for _, cs := range cases {
			var ids [2]string
			for i, off := range []bool{false, true} {
				opt := enum.ConfigBest()
				if !cs.cut {
					opt.Cut = enum.CutNone
					opt.CutK = 0
				}
				opt.MaxLen = 20
				opt.AllSolutions = true
				opt.MaxSolutions = 64
				opt.DuplicateSafe = cs.dupsafe
				opt.DisableSWAR = off
				start := time.Now()
				res := enum.Run(cs.set, opt)
				wall := time.Since(start)
				ids[i] = swarcheckIdentity(res, cs.set.N)
				mode := "on"
				if off {
					mode = "off"
				}
				tw.row(cs.name, mode,
					fmt.Sprint(res.Length), fmt.Sprint(res.SolutionCount),
					fmt.Sprint(res.Expanded), fmt.Sprint(res.Generated),
					fmt.Sprint(res.Pruned), fmt.Sprint(res.CutCount),
					fmt.Sprint(res.Deduped), wall.Round(time.Millisecond).String())
			}
			if ids[0] != ids[1] {
				fail++
				c.printf("DIVERGENCE %s: swar vs scalar\n  swar   %s\n  scalar %s\n",
					cs.name, ids[0], ids[1])
			}
		}
		tw.flush(c.w)
		if fail > 0 {
			return fmt.Errorf("swarcheck: %d divergences between SWAR and scalar execution", fail)
		}
		c.printf("all runs byte-identical: SWAR on and off agree\n")
		return nil
	})
}

// swarcheckIdentity projects a search result onto everything that must
// be byte-identical between SWAR and scalar execution: the solution
// set itself plus every deterministic counter. Wall time is excluded.
func swarcheckIdentity(r *enum.Result, n int) string {
	progs := make([]string, len(r.Programs))
	for i, p := range r.Programs {
		progs[i] = p.FormatInline(n)
	}
	var first string
	if r.Program != nil {
		first = r.Program.FormatInline(n)
	}
	b, _ := json.Marshal(map[string]any{
		"length":    r.Length,
		"solutions": r.SolutionCount,
		"program":   first,
		"programs":  progs,
		"expanded":  r.Expanded,
		"generated": r.Generated,
		"deduped":   r.Deduped,
		"cut":       r.CutCount,
		"pruned":    r.Pruned,
		"exhausted": r.Exhausted,
		"proof":     r.Proof,
	})
	return string(b)
}
