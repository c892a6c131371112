package enum

import (
	"math"

	"sortsynth/internal/isa"
)

// countPaths returns the exact number of distinct optimal programs: the
// number of root-to-solution paths in the deduplicated search DAG. Each
// path corresponds to one syntactically distinct minimal program, because
// two programs arriving at the same canonical state at the same depth are
// semantically identical under every completion (paper §3.6, "we skip …
// semantically identical programs").
func (s *searcher) countPaths() int64 {
	// The memo is a dense slice rather than a map: node IDs are the
	// indices of s.nodes, every ancestor of a solution is visited, and on
	// all-solutions runs the DAG holds hundreds of thousands of nodes, so
	// dense indexing beats per-node hashing. -1 marks unvisited (path
	// counts are nonnegative; the root contributes 1).
	memo := make([]int64, len(s.nodes))
	for i := range memo {
		memo[i] = -1
	}
	var count func(v int32) int64
	count = func(v int32) int64 {
		nd := &s.nodes[v]
		if nd.parent < 0 {
			return 1
		}
		if c := memo[v]; c >= 0 {
			return c
		}
		c := count(nd.parent)
		for e := range s.extraParents(v) {
			c = satAdd(c, count(e.parent))
		}
		memo[v] = c
		return c
	}
	var total int64
	for _, id := range s.sols {
		total = satAdd(total, count(id))
	}
	return total
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// enumeratePrograms materializes the optimal programs by walking every
// root-to-solution path, up to MaxSolutions (0 = all). Programs are
// emitted in a deterministic order (solution nodes in discovery order,
// edges primary-first).
func (s *searcher) enumeratePrograms() []isa.Program {
	limit := s.opt.MaxSolutions
	instrs := s.set.Instrs()
	var out []isa.Program
	// rev holds the instructions from the current node back to the
	// solution (i.e. the program suffix, reversed).
	var rev []uint16
	var walk func(v int32) bool
	walk = func(v int32) bool {
		nd := &s.nodes[v]
		if nd.parent < 0 {
			p := make(isa.Program, len(rev))
			for i, id := range rev {
				p[len(rev)-1-i] = instrs[id]
			}
			out = append(out, p)
			return limit == 0 || len(out) < limit
		}
		rev = append(rev, nd.instr)
		ok := walk(nd.parent)
		for e := range s.extraParents(v) {
			if !ok {
				break
			}
			rev[len(rev)-1] = e.instr
			ok = walk(e.parent)
		}
		rev = rev[:len(rev)-1]
		return ok
	}
	for _, id := range s.sols {
		if !walk(id) {
			break
		}
	}
	return out
}
