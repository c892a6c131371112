package verify

import (
	"encoding/binary"
	"slices"
	"testing"

	"sortsynth/internal/isa"
	"sortsynth/internal/perm"
	"sortsynth/internal/state"
)

// naiveCounterexample is the independent fuzz oracle: the literal
// n!-loop over permutations through the reference integer interpreter,
// with its own sortedness + multiset check, returning the first failing
// permutation in lexicographic order or nil. It shares nothing with
// Sorts, which runs the packed 32-bit machine, nor with the buffer-reusing
// walk of Counterexample.
func naiveCounterexample(set *isa.Set, p isa.Program) []int {
	for _, in := range perm.All(set.N) {
		out := state.RunInts(set, p, in)
		a, b := slices.Clone(in), slices.Clone(out)
		slices.Sort(a)
		slices.Sort(b)
		if !slices.IsSorted(out) || !slices.Equal(a, b) {
			return in
		}
	}
	return nil
}

// FuzzVerifySorts cross-checks every verifier in this package against
// the naive oracle on arbitrary programs: Sorts and Counterexample must
// agree with the n!-loop, the weak-order suite must imply the
// permutation suite and random-input correctness, the 0-1 principle
// must agree with full verification on min/max programs, and
// SortsRandom must tolerate hostile bounds (this target found the
// negative-bound panic fixed in SortsRandom).
func FuzzVerifySorts(f *testing.F) {
	f.Add([]byte{}, 2, false, 100)
	f.Add([]byte{0, 0, 0, 1, 0, 2}, 3, false, 5)
	f.Add([]byte{0, 9, 0, 3, 0, 1, 0, 4, 0, 1, 0, 5}, 3, true, -7)
	f.Add([]byte("fuzz the verifier oracle"), 4, true, 0)
	f.Fuzz(func(t *testing.T, code []byte, n int, minmax bool, bound int) {
		n = 2 + (n%3+3)%3 // n ∈ {2,3,4}: 24 permutations at most
		var set *isa.Set
		if minmax {
			set = isa.NewMinMax(n, 1)
		} else {
			set = isa.NewCmov(n, 1)
		}
		instrs := set.Instrs()
		var p isa.Program
		for i := 0; i+1 < len(code) && len(p) < 24; i += 2 {
			p = append(p, instrs[int(binary.BigEndian.Uint16(code[i:]))%len(instrs)])
		}

		naive := naiveCounterexample(set, p)
		want := naive == nil
		if got := Sorts(set, p); got != want {
			t.Fatalf("Sorts = %v, naive oracle says %v for %q", got, want, p.FormatInline(n))
		}
		ce := Counterexample(set, p)
		if !slices.Equal(ce, naive) {
			t.Fatalf("Counterexample = %v, oracle's first failing permutation is %v", ce, naive)
		}
		if ce != nil {
			out := state.RunInts(set, p, ce)
			ok := slices.IsSorted(out)
			a, b := slices.Clone(ce), slices.Clone(out)
			slices.Sort(a)
			slices.Sort(b)
			if ok && slices.Equal(a, b) {
				t.Fatalf("counterexample %v is not a genuine failure (out %v)", ce, out)
			}
		}

		if SortsDuplicates(set, p) {
			if !want {
				t.Fatalf("weak-order-correct program fails a permutation: %q", p.FormatInline(n))
			}
			if in := SortsRandom(set, p, 32, 3, 11); in != nil {
				t.Fatalf("duplicate-safe program fails random input %v", in)
			}
		}
		if minmax {
			if got := Sorts01MinMax(set, p); got != want {
				t.Fatalf("0-1 principle = %v, full verification = %v for %q", got, want, p.FormatInline(n))
			}
		}

		// Hostile bounds must neither panic nor fabricate failures.
		if in := SortsRandom(set, p, 4, bound, 1); in != nil {
			out := state.RunInts(set, p, in)
			ok := slices.IsSorted(out)
			a, b := slices.Clone(in), slices.Clone(out)
			slices.Sort(a)
			slices.Sort(b)
			if ok && slices.Equal(a, b) {
				t.Fatalf("SortsRandom(bound=%d) reported sorted output %v for input %v", bound, out, in)
			}
		}
	})
}
