// Quickstart: synthesize a provably minimal 3-element sorting kernel,
// verify it, and inspect its static cost profile.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sortsynth"
)

func main() {
	// A machine with three sorted registers (r1..r3) and one scratch
	// register (s1) — the configuration of the paper and of AlphaDev.
	set := sortsynth.NewCmovSet(3, 1)

	// The known optimal length for this machine is 11 instructions
	// (one shorter than a sorting-network implementation).
	bound, _ := sortsynth.KnownOptimalLength(set)

	// Every returned kernel is verified on all 3! permutations (the
	// paper's §2.3 criterion); a kernel that fails would be an error.
	res, err := sortsynth.SynthesizeBest(set, bound)
	if err != nil {
		log.Fatal(err)
	}
	if res.Status != sortsynth.StatusFound {
		log.Fatalf("synthesis failed: %s", res.Status)
	}
	fmt.Printf("synthesized a %d-instruction kernel in %v (%d states expanded):\n\n",
		res.Length, res.Stats.Elapsed.Round(1000), res.Stats.Nodes)
	fmt.Println(res.Program.Format(set.N))
	fmt.Println("\n✓ sorts all 6 permutations of distinct values")

	// … and check duplicate handling, which permutations cannot cover.
	if sortsynth.VerifyDuplicates(set, res.Program) {
		fmt.Println("✓ also sorts every input with repeated values")
	} else {
		ce := sortsynth.Counterexample(set, res.Program)
		fmt.Printf("✗ mis-sorts ties (e.g. %v) — synthesize with SynthesizeDuplicateSafe\n", ce)
		safe, err := sortsynth.SynthesizeDuplicateSafe(set, bound)
		if err != nil || safe.Status != sortsynth.StatusFound {
			log.Fatalf("duplicate-safe synthesis failed: %v", err)
		}
		fmt.Printf("\nduplicate-safe kernel (still %d instructions):\n%s\n",
			safe.Length, safe.Program.Format(set.N))
	}

	// Static cost model (the uiCA-style estimator of the evaluation).
	a := sortsynth.Analyze(set, res.Program)
	fmt.Printf("\ncost model: %d instructions, %d uops, score %d, critical path %d, ~%.2f cycles/invocation\n",
		a.Instructions, a.Uops, a.Score, a.CriticalPath, a.Throughput)
}
