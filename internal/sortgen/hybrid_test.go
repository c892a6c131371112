package sortgen

import (
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sortsynth/internal/kernels"
)

// TestHybridDifferential covers every length 0..64, both sides of the
// leaf cutoff and the first partition levels above it, plus larger
// lists.
func TestHybridDifferential(t *testing.T) {
	var sizes []int
	for n := 0; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 100, 1024, 20000)
	if err := CheckDynamic(HybridSort, sizes, 8, 11); err != nil {
		t.Fatal(err)
	}
}

// checkHybrid requires HybridSort(in) to equal slices.Sort(in).
func checkHybrid(t *testing.T, name string, in []int) {
	t.Helper()
	want := slices.Clone(in)
	slices.Sort(want)
	got := slices.Clone(in)
	HybridSort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("HybridSort diverges from slices.Sort on %s n=%d: got %v, want %v",
			name, len(in), truncate(got), truncate(want))
	}
}

// medianOf3Killer builds the classic adversarial permutation that
// drives median-of-three quicksort quadratic; the output must still be
// byte-equal with slices.Sort.
func medianOf3Killer(n int) []int {
	a := make([]int, n)
	k := n / 2
	for i := 0; i < k; i++ {
		if i%2 == 0 {
			a[i] = i + 1
		} else {
			a[i] = k + i
		}
		a[k+i] = 2 * (i + 1)
	}
	if n%2 == 1 {
		a[n-1] = n
	}
	return a
}

func TestHybridAdversarial(t *testing.T) {
	for _, n := range []int{100, 1000, 10000} {
		checkHybrid(t, "median-of-3 killer", medianOf3Killer(n))
	}
	// Two-valued inputs stress the partition's duplicate handling.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		in := make([]int, 1+rng.Intn(2000))
		for i := range in {
			in[i] = rng.Intn(2)
		}
		checkHybrid(t, "two-valued", in)
	}
}

func TestHeapsortFallbackDirect(t *testing.T) {
	// The fallback must be correct on its own, not only as a rescue.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		in := make([]int, n)
		for i := range in {
			in[i] = rng.Intn(50) - 25
		}
		want := slices.Clone(in)
		slices.Sort(want)
		heapsort(in)
		if !slices.Equal(in, want) {
			t.Fatalf("heapsort diverges at n=%d", n)
		}
	}
}

// TestHybridHeapsortRescue enters the loop with no bad-pivot budget
// left, so every range longer than a leaf goes straight to the
// heapsort that bounds the worst case.
func TestHybridHeapsortRescue(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{maxLeafN + 1, maxLeafN + 2, 50, 333, 4096} {
		for _, in := range [][]int{medianOf3Killer(n), Distributions()[0].Gen(rng, n)} {
			want := slices.Clone(in)
			slices.Sort(want)
			got := slices.Clone(in)
			pdqsort(got, 0, len(got), 0)
			if !slices.Equal(got, want) {
				t.Fatalf("pdqsort with limit 0 diverges at n=%d: got %v", n, truncate(got))
			}
		}
	}
}

// TestHybridTieTolerantHint checks that the sortedness hint reads
// through ties: runs of equal keys inside an ascending or descending
// range, which defeat a test that needs every sampled comparison to
// swap, still give the increasing or decreasing hint.
func TestHybridTieTolerantHint(t *testing.T) {
	for _, n := range []int{maxLeafN + 1, 49, 50, 1000, 20000} {
		// Every key twice: 0 0 1 1 2 2 ...
		asc := make([]int, n)
		for i := range asc {
			asc[i] = i / 2
		}
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		if _, hint := choosePivot(asc, 0, n); hint != increasingHint {
			t.Fatalf("n=%d: ascending input with ties got hint %d, want increasing", n, hint)
		}
		if _, hint := choosePivot(desc, 0, n); hint != decreasingHint {
			t.Fatalf("n=%d: descending input with ties got hint %d, want decreasing", n, hint)
		}
		checkHybrid(t, "descending with ties", desc)
		checkHybrid(t, "ascending with ties", asc)
	}
	// The quartile samples of 17 elements sit at 4, 8 and 12.
	mixed := make([]int, maxLeafN+1)
	mixed[4], mixed[8], mixed[12] = 5, 9, 1
	if _, hint := choosePivot(mixed, 0, len(mixed)); hint != unknownHint {
		t.Fatalf("mixed sample got hint %d, want unknown", hint)
	}
	// Reversed input that steps down by 0..2, the benchmark's shape.
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{50, 1000, 20000} {
		desc := make([]int, n)
		v := n
		for i := range desc {
			v -= rng.Intn(3)
			desc[i] = v
		}
		checkHybrid(t, "reversed with ties", desc)
	}
}

// TestHybridFewDistinct covers the equal-key path: inputs with 1, 2
// and 8 distinct values make the pivot repeat the previous one.
func TestHybridFewDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, distinct := range []int{1, 2, 8} {
		for _, n := range []int{6, 50, 51, 1000, 20000} {
			in := make([]int, n)
			for i := range in {
				in[i] = rng.Intn(distinct) * 1000
			}
			checkHybrid(t, "few distinct", in)
		}
	}
	// partitionEqual on its own: the pivot's run comes first, then the
	// greater keys, and the returned index splits the two.
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(100)
		in := make([]int, n)
		for i := range in {
			in[i] = 10 + rng.Intn(4)
		}
		in[rng.Intn(n)] = 10 // the range's minimum, as the previous pivot guarantees
		mid := partitionEqual(in, 0, n, slices.Index(in, 10))
		for i, v := range in {
			if (i < mid) != (v == 10) {
				t.Fatalf("partitionEqual split at %d: %v", mid, in)
			}
		}
	}
}

// TestHybridOrganPipeAndSawtooth covers the patterns quicksort variants
// pick bad pivots on.
func TestHybridOrganPipeAndSawtooth(t *testing.T) {
	for _, n := range []int{6, 7, 9, 50, 51, 101, 1000, 20000} {
		pipe := make([]int, n)
		for i := range pipe {
			pipe[i] = min(i, n-1-i)
		}
		checkHybrid(t, "organ pipe", pipe)
		for _, period := range []int{2, 3, 7, 43, n/2 + 1} {
			saw := make([]int, n)
			for i := range saw {
				saw[i] = i % period
			}
			checkHybrid(t, "sawtooth", saw)
			slices.Reverse(saw)
			checkHybrid(t, "reversed sawtooth", saw)
		}
	}
}

// TestHybridNearlySorted exercises the partial insertion sort's
// shifting path on sorted ranges of ≥ 50 elements with a few
// transpositions. One transposition takes at most two shifting steps,
// so the partial insertion sort alone must repair it.
func TestHybridNearlySorted(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{50, 64, 500, 5000} {
		for swaps := 1; swaps <= 4; swaps++ {
			for trial := 0; trial < 20; trial++ {
				in := make([]int, n)
				for i := range in {
					in[i] = 3 * i
				}
				for s := 0; s < swaps; s++ {
					i, j := rng.Intn(n), rng.Intn(n)
					in[i], in[j] = in[j], in[i]
				}
				checkHybrid(t, "nearly sorted", in)
				if got := slices.Clone(in); swaps == 1 && (!partialInsertionSort(got) || !slices.IsSorted(got)) {
					t.Fatalf("partialInsertionSort did not repair a transposition at n=%d", n)
				}
			}
		}
	}
	// Below 50 elements the partial insertion sort only detects.
	in := []int{0, 1, 2, 4, 3, 5, 6, 7}
	if partialInsertionSort(in) || !slices.Equal(in, []int{0, 1, 2, 4, 3, 5, 6, 7}) {
		t.Fatalf("partialInsertionSort shifted a short range: %v", in)
	}
}

// TestHybridSmallExhaustive sorts every weak order (every tuple over
// {0..m-1} using each value, m ≤ n, which includes every permutation)
// of every length 0..8: every synthesized-kernel leaf and the three
// smallest composed leaves, with every pattern of ties.
func TestHybridSmallExhaustive(t *testing.T) {
	for n := 0; n <= 8; n++ {
		count := 0
		forEachWeakOrder(n, func(in []int) {
			count++
			checkHybrid(t, "weak order", in)
		})
		// Ordered Bell (Fubini) numbers.
		if want := []int{1, 1, 3, 13, 75, 541, 4683, 47293, 545835}[n]; count != want {
			t.Fatalf("n=%d: enumerated %d weak orders, want %d", n, count, want)
		}
	}
}

// forEachWeakOrder calls fn on every weak order of length n: each set
// partition of the positions (a restricted growth string) under every
// ordering of its blocks. fn must not keep or modify its argument.
func forEachWeakOrder(n int, fn func([]int)) {
	rgs := make([]int, n)
	out := make([]int, n)
	var labels func(perm []int, k int)
	labels = func(perm []int, k int) {
		if k == len(perm) {
			for i, b := range rgs {
				out[i] = perm[b]
			}
			fn(out)
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			labels(perm, k+1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	var grow func(i, blocks int)
	grow = func(i, blocks int) {
		if i == n {
			perm := make([]int, blocks)
			for b := range perm {
				perm[b] = b
			}
			labels(perm, 0)
			return
		}
		for b := 0; b <= blocks; b++ {
			rgs[i] = b
			grow(i+1, max(blocks, b+1))
		}
	}
	grow(0, 0)
}

// TestHybridLeavesAreSynthesizedKernels pins the leaf dispatch: every
// segment of 3..5 elements runs the registry's synthesized kernel, and
// every segment of 6..16 the composed sorter generated into zleaves.go
// (TestLeavesSourceMatchesZleaves pins that source to Compose).
func TestHybridLeavesAreSynthesizedKernels(t *testing.T) {
	same := func(f, g func([]int)) bool {
		return reflect.ValueOf(f).Pointer() == reflect.ValueOf(g).Pointer()
	}
	for n := 3; n <= MaxKernelN; n++ {
		k, ok := kernels.Lookup("enum", n)
		if !ok {
			t.Fatalf("no enum kernel for n=%d", n)
		}
		if !same(leafKernels[n], k.Go) {
			t.Fatalf("leafKernels[%d] is not kernels.Lookup(\"enum\", %d)", n, n)
		}
	}
	composed := []func([]int){sort6, sort7, sort8, sort9, sort10, sort11, sort12, sort13, sort14, sort15, sort16}
	if len(composed) != maxLeafN-MaxKernelN {
		t.Fatalf("pinned %d composed leaves, want %d", len(composed), maxLeafN-MaxKernelN)
	}
	for i, f := range composed {
		if n := MaxKernelN + 1 + i; !same(leafKernels[n], f) {
			t.Fatalf("leafKernels[%d] is not the generated sort%d", n, n)
		}
	}
}

// TestHybridComposedLeaves checks each compiled composed leaf on its
// own: all 2^n 0-1 inputs, which exercise every merge comparator and
// the kernel blocks on ties, and the differential check over the five
// distributions.
func TestHybridComposedLeaves(t *testing.T) {
	for n := MaxKernelN + 1; n <= maxLeafN; n++ {
		leaf := leafKernels[n]
		in := make([]int, n)
		for bitsIn := 0; bitsIn < 1<<n; bitsIn++ {
			for i := range in {
				in[i] = bitsIn >> i & 1
			}
			orig := slices.Clone(in)
			leaf(in)
			zeros := n - bits.OnesCount(uint(bitsIn))
			for i, v := range in {
				if v != b2i(i >= zeros) {
					t.Fatalf("leaf %d mis-sorts 0-1 input %v: got %v", n, orig, in)
				}
			}
		}
		if err := CheckFixed(leaf, n, 200, int64(n)); err != nil {
			t.Fatal(err)
		}
	}
}
