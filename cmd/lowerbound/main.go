// Command lowerbound certifies minimal kernel lengths by exhaustive
// search with only optimality-preserving pruning (deduplication,
// admissible single-assignment and pair distance bounds, viability) —
// the method behind the paper's new n=4 result: no length-19 kernel
// exists, so the length-20 kernels are optimal (§5.3).
//
// Examples:
//
//	lowerbound -n 3 -len 10              # seconds: validates 11 is optimal
//	lowerbound -n 3 -isa minmax -len 7   # validates 8 is optimal (§5.4)
//	lowerbound -n 4 -len 19              # the paper's two-week computation
//	lowerbound -n 4 -len 19 -budget 5e7  # a bounded slice of it
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"sortsynth"
	"sortsynth/internal/enum"
	"sortsynth/internal/verify"
)

func main() {
	log.SetFlags(0)
	var (
		n       = flag.Int("n", 3, "array length")
		m       = flag.Int("m", 1, "scratch registers")
		isaName = flag.String("isa", "cmov", "instruction set: cmov or minmax")
		length  = flag.Int("len", 10, "certify that no kernel of length ≤ len exists")
		budget  = flag.Float64("budget", 0, "state budget (0 = unlimited; inexhaustive runs are inconclusive)")
		timeout = flag.Duration("timeout", 0, "wall-clock budget")
	)
	flag.Parse()

	var set *sortsynth.Set
	switch *isaName {
	case "cmov":
		set = sortsynth.NewCmovSet(*n, *m)
	case "minmax":
		set = sortsynth.NewMinMaxSet(*n, *m)
	default:
		log.Fatalf("unknown -isa %q", *isaName)
	}

	opt := enum.ConfigProof(*length)
	opt.StateBudget = int64(*budget)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	res := enum.RunContext(ctx, set, opt)
	elapsed := time.Since(start).Round(time.Millisecond)
	if res.Err != nil {
		log.Fatal(res.Err)
	}

	switch {
	case res.Length >= 0:
		// The engine is run directly for its prune counters, so its
		// kernel has not been through backend.Run: verify it here.
		if ce := verify.Counterexample(set, res.Program); ce != nil {
			log.Fatalf("engine bug: the length-%d kernel it found fails on input %v:\n%s",
				res.Length, ce, res.Program.Format(*n))
		}
		fmt.Printf("DISPROVED: a length-%d kernel exists (%d optimal programs found, %v):\n%s\n",
			res.Length, res.SolutionCount, elapsed, res.Program.Format(*n))
		os.Exit(1)
	case res.Proof:
		fmt.Printf("PROVED: no %s kernel of length ≤ %d exists.\n", set, *length)
		fmt.Printf("states expanded: %d, generated: %d, deduplicated: %d, pruned: %d (pair bound: %d), time: %v\n",
			res.Expanded, res.Generated, res.Deduped, res.Pruned, res.PairPruned, elapsed)
	default:
		fmt.Printf("INCONCLUSIVE: stopped before exhaustion (expanded %d states in %v).\n", res.Expanded, elapsed)
		fmt.Printf("Re-run without -budget/-timeout for a certified bound.\n")
		os.Exit(2)
	}
}
