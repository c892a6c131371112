// Package perm provides utilities for enumerating and ranking the
// permutations of 1..n that form the correctness test suite for sorting
// kernel synthesis.
//
// Because sorting kernels are constant-free and oblivious, a kernel is
// correct for all inputs iff it sorts every permutation of n distinct
// values (paper §2.3). The canonical test suite is therefore the n!
// permutations of 1..n.
package perm

import "fmt"

// MaxN is the largest array length supported by the packed state
// representation (4 bits per register value, values 1..n plus 0 for
// uninitialized scratch).
const MaxN = 7

// Factorial returns n!. It panics if n is negative or the result would
// overflow int64.
func Factorial(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("perm: Factorial of negative %d", n))
	}
	if n > 20 {
		panic(fmt.Sprintf("perm: Factorial(%d) overflows int64", n))
	}
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// All returns all n! permutations of 1..n in lexicographic order.
// Each permutation is a fresh slice of length n.
func All(n int) [][]int {
	if n < 0 || n > MaxN {
		panic(fmt.Sprintf("perm: All(%d) out of range [0,%d]", n, MaxN))
	}
	if n == 0 {
		return [][]int{{}}
	}
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i + 1
	}
	out := make([][]int, 0, Factorial(n))
	for {
		p := make([]int, n)
		copy(p, cur)
		out = append(out, p)
		if !Next(cur) {
			break
		}
	}
	return out
}

// Next advances p in place to the next permutation in lexicographic
// order, returning false if p was the last one. Starting from 1..n it
// visits the permutations in the order All lists them.
func Next(p []int) bool {
	i := len(p) - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(p) - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	for l, r := i+1, len(p)-1; l < r; l, r = l+1, r-1 {
		p[l], p[r] = p[r], p[l]
	}
	return true
}

// Rank returns the lexicographic rank (0-based) of permutation p of 1..n.
func Rank(p []int) int {
	n := len(p)
	rank := 0
	for i := 0; i < n; i++ {
		smaller := 0
		for j := i + 1; j < n; j++ {
			if p[j] < p[i] {
				smaller++
			}
		}
		rank += smaller * Factorial(n-1-i)
	}
	return rank
}

// Unrank returns the permutation of 1..n with the given lexicographic
// rank (0-based).
func Unrank(n, rank int) []int {
	if rank < 0 || rank >= Factorial(n) {
		panic(fmt.Sprintf("perm: Unrank rank %d out of range for n=%d", rank, n))
	}
	avail := make([]int, n)
	for i := range avail {
		avail[i] = i + 1
	}
	p := make([]int, 0, n)
	for i := n - 1; i >= 0; i-- {
		f := Factorial(i)
		idx := rank / f
		rank %= f
		p = append(p, avail[idx])
		avail = append(avail[:idx], avail[idx+1:]...)
	}
	return p
}

// WeakOrders returns one canonical representative of every weak ordering
// of n elements: all tuples over {1..m} (m ≤ n) that use each value
// 1..m at least once. Because constant-free comparison programs behave
// identically on order-isomorphic inputs *including ties*, testing all
// weak orders is sound and complete for arbitrary integer inputs —
// unlike the n! distinct-value permutations, which never exercise the
// "equal" outcome of cmp (both flags clear). The counts are the ordered
// Bell numbers: 1, 3, 13, 75, 541 for n = 1..5.
func WeakOrders(n int) [][]int {
	if n < 0 || n > MaxN {
		panic(fmt.Sprintf("perm: WeakOrders(%d) out of range [0,%d]", n, MaxN))
	}
	var out [][]int
	cur := make([]int, n)
	var rec func(i, maxUsed int)
	rec = func(i, maxUsed int) {
		if i == n {
			// Canonical iff values used are exactly 1..maxUsed; ensure
			// surjectivity.
			seen := make([]bool, maxUsed+1)
			for _, v := range cur {
				if v <= maxUsed {
					seen[v] = true
				}
			}
			for v := 1; v <= maxUsed; v++ {
				if !seen[v] {
					return
				}
			}
			p := make([]int, n)
			copy(p, cur)
			out = append(out, p)
			return
		}
		for v := 1; v <= n; v++ {
			cur[i] = v
			nm := maxUsed
			if v > nm {
				nm = v
			}
			rec(i+1, nm)
		}
	}
	rec(0, 0)
	return out
}

// IsSorted reports whether p is in ascending order.
func IsSorted(p []int) bool {
	for i := 1; i < len(p); i++ {
		if p[i-1] > p[i] {
			return false
		}
	}
	return true
}

// IsPermutation reports whether p is a permutation of 1..n where n = len(p).
func IsPermutation(p []int) bool {
	seen := make([]bool, len(p)+1)
	for _, v := range p {
		if v < 1 || v > len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
