// Hybridsort: sort with the generated library of internal/sortgen —
// synthesized kernels and the composed sorters built from them as the
// ≤ 16-element base cases of a pattern-defeating quicksort, plus fully
// branchless composed sorters for fixed small lengths — and check every
// result byte-for-byte against slices.Sort. This is the deployment
// scenario that motivates sorting-kernel synthesis (paper §1, §5.3):
// the kernels matter because they sit inside real sorts.
//
//	go run ./examples/hybridsort
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"
	"sort"
	"time"

	"sortsynth/internal/sortgen"
)

func main() {
	const size = 500_000
	rng := rand.New(rand.NewSource(2025))
	data := make([]int, size)
	for i := range data {
		data[i] = rng.Intn(200001) - 100000
	}

	// The reference: whatever slices.Sort produces is, by definition,
	// the correct answer — every contender must match it exactly, not
	// merely be sorted.
	ref := slices.Clone(data)
	slices.Sort(ref)

	timeIt := func(name string, sortFn func([]int)) {
		work := slices.Clone(data)
		start := time.Now()
		sortFn(work)
		elapsed := time.Since(start)
		if !slices.Equal(work, ref) {
			log.Fatalf("%s output differs from slices.Sort", name)
		}
		fmt.Printf("  %-38s %v\n", name, elapsed.Round(time.Microsecond))
	}

	fmt.Printf("sorting %d random ints (all outputs checked against slices.Sort):\n", size)
	timeIt("slices.Sort (stdlib)", func(a []int) { slices.Sort(a) })
	timeIt("sort.Slice (stdlib, func compare)", func(a []int) {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	})
	timeIt("sortgen.HybridSort (kernel and composed base cases)", sortgen.HybridSort)

	// Fixed-n: compose a fully branchless sorter (kernel blocks + merge
	// networks) and run it over many small arrays — the shape generated
	// sorters exist for.
	fmt.Println("\nfixed-length composed sorters (1e5 arrays each, vs slices.Sort):")
	for _, n := range []int{6, 13, 32} {
		plan, err := sortgen.Compose(n)
		if err != nil {
			log.Fatal(err)
		}
		sorter := plan.Sorter()
		const arrays = 100_000
		inputs := make([][]int, arrays)
		for i := range inputs {
			a := make([]int, n)
			for j := range a {
				a[j] = rng.Intn(20001) - 10000
			}
			inputs[i] = a
		}
		start := time.Now()
		for _, a := range inputs {
			sorter(a)
		}
		elapsed := time.Since(start)
		for _, a := range inputs {
			if !slices.IsSorted(a) {
				log.Fatalf("Sort%d left an unsorted array", n)
			}
		}
		// Spot-check exact agreement with slices.Sort on fresh inputs.
		for trial := 0; trial < 1000; trial++ {
			in := make([]int, n)
			for j := range in {
				in[j] = rng.Intn(100)
			}
			want := slices.Clone(in)
			slices.Sort(want)
			sorter(in)
			if !slices.Equal(in, want) {
				log.Fatalf("Sort%d output differs from slices.Sort", n)
			}
		}
		fmt.Printf("  Sort%-3d (blocks %-8s %3d kernel instr, %3d comparators)  %v\n",
			n, plan.BlocksDesc()+",", plan.KernelInstructions(), plan.Comparators(),
			elapsed.Round(time.Microsecond))
	}

	fmt.Println("\nall sorts produced output identical to slices.Sort ✓")
}
