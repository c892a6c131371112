package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must be Python's statistics.quantiles(xs, n=4), the
// definition run-to-run spread is judged by; the expected values are
// Python's output.
func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
		med        float64
	}{
		{[]float64{3.1, 1.0, 4.1, 5.9, 2.6, 5.3, 5.8, 9.7, 9.3, 2.3}, 2.525, 4.7, 6.75, 4.7},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5, 3},
		{[]float64{2, 7}, 0.75, 4.5, 8.25, 4.5},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok || !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, ok, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.xs); !near(m, tc.med) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, m, tc.med)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 2, 4, 8}); !near(g, math.Sqrt(8)) {
		t.Errorf("geomean = %v, want %v", g, math.Sqrt(8))
	}
	if g := geomean([]float64{3, 3, 3}); !near(g, 3) {
		t.Errorf("geomean of equal values = %v", g)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to exercise the sort
		}
		return xs
	}
	for _, tc := range []struct {
		p       float64
		minimum int
	}{{50, 20}, {90, 100}, {99, 1000}} {
		if got := minSamples(tc.p); got != tc.minimum {
			t.Errorf("minSamples(%v) = %d, want %d", tc.p, got, tc.minimum)
		}
		if _, ok := percentile(seq(tc.minimum-1), tc.p); ok {
			t.Errorf("p%v of %d samples reported ok", tc.p, tc.minimum-1)
		}
		v, ok := percentile(seq(tc.minimum), tc.p)
		if !ok {
			t.Errorf("p%v of %d samples not ok", tc.p, tc.minimum)
		}
		if beyond := tc.minimum - int(v); beyond != minBeyond {
			t.Errorf("p%v of 1..%d = %v leaves %d samples beyond it, want %d", tc.p, tc.minimum, v, beyond, minBeyond)
		}
	}
	if v, _ := percentile([]float64{5, 1, 3}, 50); v != 3 {
		t.Errorf("p50 of {5,1,3} = %v, want 3", v)
	}
}

// Self time subtracts the union of a span's children, even when they
// overlap.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.pass", Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Name: "enum.RunContext", Start: 10e6, End: 50e6},
		{ID: 3, Parent: 1, Name: "verify.Sorts", Start: 40e6, End: 60e6},
	}
	got := selfTimes(spans)
	want := map[string]float64{"bench": 50, "enum": 40, "verify": 20}
	for l, w := range want {
		if !near(got[l], w) {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}
