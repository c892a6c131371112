package sortgen

// The outer loop below follows the control flow of pattern-defeating
// quicksort (Orson R. L. Peters, "Pattern-defeating Quicksort", 2021,
// arXiv:2106.05123) as ported to Go in the standard library's
// slices/zsortordered.go:
//
//	Copyright 2022 The Go Authors. All rights reserved.
//	Use of this source code is governed by a BSD-style
//	license that can be found in the Go LICENSE file.
//
// It departs from that port in three places: the partitions are
// branchless Lomuto loops instead of Hoare, the sortedness hint
// tolerates ties, and every segment of ≤ maxLeafN elements is
// finished by a compiled straight-line sorter instead of insertion
// sort.

import "math/bits"

// HybridSort sorts a in place for arbitrary n: a pattern-defeating
// quicksort (ninther pivot, equal-key partitioning, a partial insertion
// sort on likely-sorted ranges, pattern breaking after unbalanced
// partitions, and a heapsort rescue that bounds the worst case at
// O(n log n)) that hands every segment of ≤ 16 elements to a
// straight-line sorter of exactly that length: the synthesized kernel
// for 3..5, and the composed sorter Compose(n) emits for 6..16 — the
// Gamal Aly et al. hybrid with the AlphaDev-style base cases replaced
// by this repository's synthesized kernels.
func HybridSort(a []int) {
	if len(a) <= maxLeafN {
		leafKernels[len(a)](a)
		return
	}
	pdqsort(a, 0, len(a), bits.Len(uint(len(a))))
}

// maxLeafN is the longest segment a leaf sorter finishes; longer ones
// are partitioned. Past 16 the gain on random input flattens
// (DESIGN.md, "Kernel leaves").
const maxLeafN = 16

// choosePivot and breakPatterns only see ranges longer than maxLeafN
// and have no short-range path, so maxLeafN must stay ≥ 8.
const _ uint = maxLeafN - 8

// leafKernels finishes a segment of length n ≤ maxLeafN with
// leafKernels[n]: nothing for 0 and 1, one compare-and-swap for 2, the
// fastest-objective synthesized kernel (kernels.Lookup("enum", n)) for
// 3..MaxKernelN, and the compiled composed sorter of zleaves.go above
// that. An array, not a map, so a leaf costs one indexed call.
var leafKernels = func() [maxLeafN + 1]func([]int) {
	ks := composedLeaves
	ks[0] = func([]int) {}
	ks[1] = ks[0]
	ks[2] = sort2
	for n := 3; n <= MaxKernelN; n++ {
		ks[n] = synthKernels[n].fn
	}
	return ks
}()

type sortedHint int

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)

// pdqsort sorts data[a:b]. Everything in data[:a] is ≤ everything in
// data[a:b], which is ≤ everything in data[b:]; partitionEqual relies
// on the first half of that invariant. limit is the number of
// unbalanced partitions allowed before the range is heapsorted.
func pdqsort(data []int, a, b, limit int) {
	wasBalanced := true    // the last partition was reasonably balanced
	wasPartitioned := true // the last partition moved nothing
	for {
		length := b - a
		if length <= maxLeafN {
			leafKernels[length](data[a:b])
			return
		}
		if limit == 0 {
			heapsort(data[a:b])
			return
		}
		if !wasBalanced {
			breakPatterns(data[a:b])
			limit--
		}

		pivot, hint := choosePivot(data, a, b)
		if hint == decreasingHint {
			reverseRange(data[a:b])
			// The pivot was pivot-a elements after the start; after the
			// reversal it is pivot-a elements before the end.
			pivot = (b - 1) - (pivot - a)
			hint = increasingHint
		}

		// The range is likely already sorted.
		if wasBalanced && wasPartitioned && hint == increasingHint {
			if partialInsertionSort(data[a:b]) {
				return
			}
		}

		// The pivot equals the previous pivot data[a-1], which bounds the
		// range from below: the range holds no element smaller than the
		// pivot, so split off the run of keys equal to it.
		if a > 0 && !(data[a-1] < data[pivot]) {
			a = partitionEqual(data, a, b, pivot)
			continue
		}

		mid, alreadyPartitioned := partition(data, a, b, pivot)
		wasPartitioned = alreadyPartitioned

		// Recurse into the smaller side and loop on the larger, so the
		// stack stays O(log n) deep.
		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			wasBalanced = leftLen >= balanceThreshold
			pdqsort(data, a, mid, limit)
			a = mid + 1
		} else {
			wasBalanced = rightLen >= balanceThreshold
			pdqsort(data, mid+1, b, limit)
			b = mid
		}
	}
}

// b2i converts a comparison result to 0 or 1. The compiler lowers it to
// a SETcc, which keeps the partition loops free of data-dependent
// branches.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// partition moves the pivot data[pivot] to its final index mid and
// returns it: data[a:mid] < pivot ≤ data[mid+1:b]. alreadyPartitioned
// reports that no element had to move. A branchy scan skips the prefix
// already below the pivot and the suffix already at or above it; a
// branchless Lomuto loop partitions what is left between them.
func partition(data []int, a, b, pivot int) (mid int, alreadyPartitioned bool) {
	s := data[a:b]
	s[0], s[pivot-a] = s[pivot-a], s[0]
	p := s[0]
	i, j := 1, len(s)-1
	for i <= j && s[i] < p {
		i++
	}
	for i <= j && !(s[j] < p) {
		j--
	}
	if i > j {
		s[0], s[i-1] = s[i-1], s[0]
		return a + i - 1, true
	}
	// Invariant: s[1:k] < p ≤ s[k:i]. Each step swaps s[i] into slot k
	// and grows the lower part by one when it was below the pivot.
	k := i
	t := s[:j+1]
	for ; i < len(t); i++ {
		x := t[i]
		t[i] = t[k]
		t[k] = x
		k += b2i(x < p)
	}
	s[0], s[k-1] = s[k-1], s[0]
	return a + k - 1, false
}

// partitionEqual partitions data[a:b], which holds no element smaller
// than data[pivot], into the keys equal to the pivot followed by the
// greater ones, and returns the index of the first greater key.
func partitionEqual(data []int, a, b, pivot int) int {
	s := data[a:b]
	s[0], s[pivot-a] = s[pivot-a], s[0]
	p := s[0]
	k := 1
	for i := 1; i < len(s); i++ {
		x := s[i]
		s[i] = s[k]
		s[k] = x
		k += b2i(!(p < x))
	}
	return a + k
}

// partialInsertionSort fixes at most maxSteps adjacent inversions in s
// and reports whether s ended up sorted. It gives up at the first
// inversion on ranges shorter than shortestShifting.
func partialInsertionSort(s []int) bool {
	const (
		maxSteps         = 5
		shortestShifting = 50
	)
	i := 1
	for step := 0; step < maxSteps; step++ {
		for i < len(s) && !(s[i] < s[i-1]) {
			i++
		}
		if i == len(s) {
			return true
		}
		if len(s) < shortestShifting {
			return false
		}
		s[i], s[i-1] = s[i-1], s[i]
		// Shift the smaller one to the left.
		for j := i - 1; j >= 1 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
		// Shift the greater one to the right.
		for j := i + 1; j < len(s) && s[j] < s[j-1]; j++ {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return false
}

// breakPatterns swaps three elements around the middle of s with
// pseudo-random partners, so a pattern that produced an unbalanced
// partition is unlikely to produce the next one. s holds more than
// maxLeafN elements.
func breakPatterns(s []int) {
	random := xorshift(len(s))
	modulus := nextPowerOfTwo(len(s))
	for idx := (len(s)/4)*2 - 1; idx <= (len(s)/4)*2+1; idx++ {
		other := int(uint(random.next()) & (modulus - 1))
		if other >= len(s) {
			other -= len(s)
		}
		s[idx], s[other] = s[other], s[idx]
	}
}

type xorshift uint64

func (r *xorshift) next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

func nextPowerOfTwo(length int) uint {
	return 1 << bits.Len(uint(length))
}

// choosePivot picks a pivot index in data[a:b], which holds more than
// maxLeafN elements, and a hint about the range's order: the median of
// three quartile samples below 50 elements, and Tukey's ninther (the
// median of three medians of adjacent triples) from 50 up.
//
// The hint ignores ties: increasing when no sampled comparison found a
// strict descent, decreasing when none found a strict ascent (and at
// least one found a descent). Sorted input that steps by 0 sometimes
// still reads as increasing, reversed input with ties as decreasing.
func choosePivot(data []int, a, b int) (pivot int, hint sortedHint) {
	const shortestNinther = 50
	l := b - a
	var (
		up, down int
		i        = a + l/4*1
		j        = a + l/4*2
		k        = a + l/4*3
	)
	if l >= shortestNinther {
		i = median(data, i-1, i, i+1, &up, &down)
		j = median(data, j-1, j, j+1, &up, &down)
		k = median(data, k-1, k, k+1, &up, &down)
	}
	j = median(data, i, j, k, &up, &down)
	switch {
	case down == 0:
		return j, increasingHint
	case up == 0:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2 returns x, y with data[x] ≤ data[y], where x, y is a, b or
// b, a, counting a strict descent (data[b] < data[a]) in down and a
// strict ascent in up; ties count in neither.
func order2(data []int, a, b int, up, down *int) (int, int) {
	if data[b] < data[a] {
		*down++
		return b, a
	}
	if data[a] < data[b] {
		*up++
	}
	return a, b
}

// median returns the index of the median of data[a], data[b], data[c].
func median(data []int, a, b, c int, up, down *int) int {
	a, b = order2(data, a, b, up, down)
	b, c = order2(data, b, c, up, down)
	_, b = order2(data, a, b, up, down)
	return b
}

func reverseRange(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func heapsort(a []int) {
	for i := len(a)/2 - 1; i >= 0; i-- {
		siftDown(a, i)
	}
	for end := len(a) - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftDown(a[:end], 0)
	}
}

func siftDown(a []int, root int) {
	for {
		child := 2*root + 1
		if child >= len(a) {
			return
		}
		if child+1 < len(a) && a[child+1] > a[child] {
			child++
		}
		if a[root] >= a[child] {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}
