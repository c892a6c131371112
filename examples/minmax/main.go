// Minmax: synthesize vector-style min/max kernels (paper §5.4) and
// compare them against the sorting-network implementations they beat.
//
//	go run ./examples/minmax
package main

import (
	"fmt"
	"log"
	"time"

	"sortsynth"
	"sortsynth/internal/sortnet"
)

func main() {
	fmt.Println("min/max kernel synthesis (movdqa/pminud/pmaxud model)")
	fmt.Println()
	fmt.Printf("%-4s %-14s %-14s %-10s %-20s\n", "n", "synthesized", "network impl", "time", "model throughput")
	for n := 3; n <= 4; n++ {
		set := sortsynth.NewMinMaxSet(n, 1)
		bound, _ := sortsynth.KnownOptimalLength(set)
		start := time.Now()
		res, err := sortsynth.SynthesizeBest(set, bound)
		if err != nil || res.Status != sortsynth.StatusFound {
			log.Fatalf("n=%d synthesis failed: %v", n, err)
		}
		elapsed := time.Since(start)

		net := sortnet.Optimal(n).CompileMinMax()
		syn := sortsynth.Analyze(set, res.Program)
		nw := sortsynth.Analyze(set, net)
		fmt.Printf("%-4d %-14s %-14s %-10v %.2f vs %.2f cycles\n",
			n,
			fmt.Sprintf("%d instr", res.Length),
			fmt.Sprintf("%d instr", len(net)),
			elapsed.Round(time.Millisecond),
			syn.Throughput, nw.Throughput)
	}

	fmt.Println()
	set := sortsynth.NewMinMaxSet(3, 1)
	res, err := sortsynth.SynthesizeBest(set, 8)
	if err != nil || res.Status != sortsynth.StatusFound {
		log.Fatalf("n=3 synthesis failed: %v", err)
	}
	fmt.Println("the 8-instruction n=3 kernel (one movdqa shorter than the 9-instruction network):")
	fmt.Println()
	fmt.Println(res.Program.Format(3))

	// The §5.4 minimality claim, certified by exhaustion.
	proof, err := sortsynth.ProveNoKernel(set, 7, 0)
	if err != nil || proof.Status != sortsynth.StatusNoProgram {
		log.Fatalf("lower-bound proof failed: %v", err)
	}
	fmt.Printf("\n✓ proved minimal: no 7-instruction min/max kernel exists (%d states, %v)\n",
		proof.Stats.Nodes, proof.Stats.Elapsed.Round(time.Millisecond))
}
