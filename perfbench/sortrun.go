package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"sortsynth/internal/kernels"
	"sortsynth/internal/sortgen"
)

// sortSizes are the two list lengths HybridSort runs on: one small enough
// that the base-case kernels are a large share of the work, one large
// enough that partitioning dominates. Each distribution gets several
// lists of each size: on one list, how fast slices.Sort spots a sorted
// or reversed run depends on the seed's exact pattern.
var sortSizes = []struct{ n, lists int }{{1_000, 16}, {20_000, 8}}

// kernelBatch is how many arrays one timed kernel loop sorts, so that a
// loop takes long enough to time with a wall clock; each round keeps the
// fastest of kernelTries loops.
const (
	kernelBatch = 65_536
	kernelTries = 3
)

type sortCase struct {
	Dist string
	In   []int
	Want []int
}

type kernelCase struct {
	N    int
	Sort func([]int)
	In   []int // kernelBatch arrays of N distinct values, back to back
	Want []int
}

// sortInputs is the sortgen-run corpus, generated from the seed.
type sortInputs struct {
	cases   []sortCase
	kernels []kernelCase
	buf     []int
}

func newSortInputs(seed int64) (*sortInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	si := &sortInputs{buf: make([]int, kernelBatch*5)}
	for _, d := range sortgen.Distributions() {
		for _, size := range sortSizes {
			for l := 0; l < size.lists; l++ {
				in := d.Gen(rng, size.n)
				want := slices.Clone(in)
				slices.Sort(want)
				si.cases = append(si.cases, sortCase{Dist: d.Name, In: in, Want: want})
			}
		}
	}
	for n := 3; n <= 5; n++ {
		k, ok := kernels.Lookup("enum", n)
		if !ok {
			return nil, fmt.Errorf("no synthesized kernel for n=%d", n)
		}
		// Distinct values per array: the §5.3 kernels are specified on
		// permutations, not on inputs with ties.
		in := make([]int, 0, kernelBatch*n)
		for i := 0; i < kernelBatch; i++ {
			arr := in[len(in):len(in)]
			for len(arr) < n {
				if v := rng.Intn(20001) - 10000; !slices.Contains(arr, v) {
					arr = append(arr, v)
				}
			}
			in = in[:len(in)+n]
		}
		want := slices.Clone(in)
		for i := 0; i < len(want); i += n {
			slices.Sort(want[i : i+n])
		}
		si.kernels = append(si.kernels, kernelCase{N: n, Sort: k.Go, In: in, Want: want})
	}
	return si, nil
}

// sortRound is one timed pass over the corpus.
type sortRound struct {
	hybrid, std map[string]time.Duration // per distribution, summed over sizes
	elems       map[string]int
	kernel      map[int]time.Duration // per kernel length
	calls       map[int]int
}

// round sorts every list with HybridSort and with slices.Sort,
// alternating which goes first, then runs every kernel batch, checking
// each output against slices.Sort.
func (si *sortInputs) round(hybridFirst bool, tr *tracer, op int64, chk *checks) sortRound {
	r := sortRound{
		hybrid: make(map[string]time.Duration), std: make(map[string]time.Duration),
		elems: make(map[string]int), kernel: make(map[int]time.Duration), calls: make(map[int]int),
	}
	timeSort := func(name string, sort func([]int), c sortCase) time.Duration {
		buf := si.buf[:len(c.In)]
		copy(buf, c.In)
		sp := tr.begin(name, 0, op)
		t0 := time.Now()
		sort(buf)
		d := time.Since(t0)
		sp.end()
		chk.record(sameAs(buf, c.Want, "%s on %s n=%d", name, c.Dist, len(c.In)))
		return d
	}
	for _, c := range si.cases {
		if hybridFirst {
			r.hybrid[c.Dist] += timeSort("sortgen.HybridSort", sortgen.HybridSort, c)
			r.std[c.Dist] += timeSort("bench.slices.Sort", slices.Sort[[]int], c)
		} else {
			r.std[c.Dist] += timeSort("bench.slices.Sort", slices.Sort[[]int], c)
			r.hybrid[c.Dist] += timeSort("sortgen.HybridSort", sortgen.HybridSort, c)
		}
		r.elems[c.Dist] += len(c.In)
	}
	for _, k := range si.kernels {
		var best time.Duration
		for try := 0; try < kernelTries; try++ {
			buf := si.buf[:len(k.In)]
			copy(buf, k.In)
			sp := tr.begin("kernels.Go", 0, op)
			t0 := time.Now()
			for i := 0; i < len(buf); i += k.N {
				k.Sort(buf[i : i+k.N])
			}
			if d := time.Since(t0); try == 0 || d < best {
				best = d
			}
			sp.end()
			chk.record(sameAs(buf, k.Want, "enum kernel n=%d", k.N))
		}
		r.kernel[k.N] += best
		r.calls[k.N] += kernelBatch
	}
	return r
}

// sameAs reports an error naming the sorter when got differs from the
// slices.Sort output want.
func sameAs(got, want []int, format string, args ...any) error {
	if slices.Equal(got, want) {
		return nil
	}
	return fmt.Errorf(format+" differs from slices.Sort", args...)
}

// sortMetrics reduces rounds to medians: the end-to-end metrics, the
// kernel time per call, and the per-distribution and per-kernel layer
// metrics.
func sortMetrics(rounds []sortRound) (e2e, layer map[string]float64) {
	e2e, layer = make(map[string]float64), make(map[string]float64)
	var nsPerElem, kernelNS []float64
	ratios := make(map[string][]float64)
	hyb := make(map[string][]float64)
	std := make(map[string][]float64)
	kn := make(map[int][]float64)
	for _, r := range rounds {
		var tot time.Duration
		var elems int
		for d, h := range r.hybrid {
			tot += h
			elems += r.elems[d]
			ratios[d] = append(ratios[d], float64(h)/float64(r.std[d]))
			hyb[d] = append(hyb[d], float64(h)/float64(r.elems[d]))
			std[d] = append(std[d], float64(r.std[d])/float64(r.elems[d]))
		}
		nsPerElem = append(nsPerElem, float64(tot)/float64(elems))
		var kt time.Duration
		var calls int
		for n, d := range r.kernel {
			kt += d
			calls += r.calls[n]
			kn[n] = append(kn[n], float64(d)/float64(r.calls[n]))
		}
		kernelNS = append(kernelNS, float64(kt)/float64(calls))
	}
	var rs []float64
	for _, d := range sortgen.Distributions() {
		rs = append(rs, median(ratios[d.Name]))
		layer["sortgen.hybrid_ns_per_elem."+d.Name] = median(hyb[d.Name])
		layer["sortgen.stdlib_ns_per_elem."+d.Name] = median(std[d.Name])
	}
	for n, xs := range kn {
		layer[fmt.Sprintf("kernels.ns_per_call.n%d", n)] = median(xs)
	}
	e2e["sort_ns_per_elem"] = median(nsPerElem)
	e2e["sort_vs_stdlib"] = geomean(rs)
	e2e["kernel_ns_per_call"] = median(kernelNS)
	return e2e, layer
}
