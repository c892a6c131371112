package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the three cut points that split xs into four equal
// groups, computed exactly like Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method), which is how run-to-run spread is
// judged. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: fewer than ten makes the tail a handful of
// outliers, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs
// and whether the sample supports it: at least minBeyond samples must lie
// beyond the percentile's rank.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted(xs)[rank-1], n-rank >= minBeyond
}

// minSamples is the smallest sample count for which percentile(p)
// reports ok.
func minSamples(p float64) int {
	for n := 1; ; n++ {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= minBeyond {
			return n
		}
	}
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
