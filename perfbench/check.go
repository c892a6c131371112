package main

import (
	"slices"

	"sortsynth/internal/isa"
)

// sortsAll is the benchmark's own kernel checker, written against the
// ISA's documented semantics rather than the program's verifier. Scratch
// registers start at 0. Without dupSafe it runs p on every permutation of
// 1..n (the paper's criterion). With dupSafe it runs every tuple over
// 1..n, realized as 2v−s for every shift s that moves the scratch
// register's 0 below, onto or between the inputs, which covers every
// integer input up to order. Either way r1..rn must end ascending and
// hold the input multiset.
func sortsAll(n, m int, p isa.Program, dupSafe bool) bool {
	for _, in := range p {
		if int(in.Dst) >= n+m || int(in.Src) >= n+m || in.Op >= isa.NumOps {
			return false
		}
	}
	regs := make([]int, n+m)
	tuple := make([]int, n)
	input := make([]int, n)
	ok := true
	try := func(shift int) {
		for i, v := range tuple {
			input[i] = 2*v - shift
		}
		clear(regs)
		copy(regs, input)
		execute(regs, p)
		want := slices.Clone(input)
		slices.Sort(want)
		if !slices.Equal(regs[:n], want) {
			ok = false
		}
	}
	if dupSafe {
		forEachTuple(tuple, n, 0, func() {
			for s := 0; ok && s <= 2*n+1; s++ {
				try(s)
			}
		})
	} else {
		forEachPerm(tuple, n, 0, make([]bool, n+1), func() {
			if ok {
				try(0)
			}
		})
	}
	return ok
}

// execute runs p on regs in place: cmp a b sets lt ← a<b and gt ← a>b,
// cmovl/cmovg copy src into dst when the flag is set, min/max keep the
// smaller/larger of dst and src.
func execute(regs []int, p isa.Program) {
	var lt, gt bool
	for _, in := range p {
		d, s := &regs[in.Dst], regs[in.Src]
		switch in.Op {
		case isa.Mov:
			*d = s
		case isa.Cmp:
			lt, gt = *d < s, *d > s
		case isa.Cmovl:
			if lt {
				*d = s
			}
		case isa.Cmovg:
			if gt {
				*d = s
			}
		case isa.Min:
			*d = min(*d, s)
		case isa.Max:
			*d = max(*d, s)
		}
	}
}

func forEachPerm(a []int, n, i int, used []bool, visit func()) {
	if i == n {
		visit()
		return
	}
	for v := 1; v <= n; v++ {
		if !used[v] {
			used[v] = true
			a[i] = v
			forEachPerm(a, n, i+1, used, visit)
			used[v] = false
		}
	}
}

func forEachTuple(a []int, n, i int, visit func()) {
	if i == n {
		visit()
		return
	}
	for v := 1; v <= n; v++ {
		a[i] = v
		forEachTuple(a, n, i+1, visit)
	}
}
