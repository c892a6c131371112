// Package uarch is a static microarchitectural cost model for sorting
// kernels — the repository's stand-in for the uiCA/LLVM-MCA throughput
// predictions of the paper's evaluation (§5.3, §5.4).
//
// The model is a simplified out-of-order x86 core in the style of recent
// Intel/AMD designs:
//
//   - register-to-register moves are eliminated during renaming (zero
//     latency, no execution port — the paper's §2.1 observation that the
//     extra move "does not cause computational load in a functional
//     unit");
//   - cmp, cmov, and SIMD min/max are single-uop, one-cycle instructions
//     on a small set of ALU ports;
//   - issue width is four uops per cycle;
//   - only true (read-after-write) dependencies constrain execution,
//     matching full register renaming.
//
// Three metrics are produced: the paper's instruction-weight score
// (mov = 1, cmp = 2, cmov = 4, used in §5.3 to sample good n = 4
// kernels), the latency-weighted critical path, and a steady-state
// throughput estimate from a greedy port-binding simulation of many
// back-to-back independent kernel invocations.
package uarch

import (
	"fmt"

	"sortsynth/internal/isa"
)

// classInfo describes how the model executes one opcode.
type classInfo struct {
	latency    int
	ports      uint8 // bitmask of eligible execution ports
	eliminated bool  // handled at rename, consumes no port
}

// ProfileName names the one modeled core: a wide out-of-order core in
// the style of recent Intel/AMD designs, the class of machine the paper
// measures on. It is spelled out in the cache keys of ranked (non-
// shortest) syntheses.
const ProfileName = "big-ooo"

// The modeled core issues issueWidth instructions per cycle onto
// numPorts ALU ports.
const (
	issueWidth = 4
	numPorts   = 4
)

// Modeled ports: 0..3 are ALU-capable; SIMD min/max can only use 0..2.
var classes = [isa.NumOps]classInfo{
	isa.Mov:   {latency: 0, eliminated: true},
	isa.Cmp:   {latency: 1, ports: 0b1111},
	isa.Cmovl: {latency: 1, ports: 0b1111},
	isa.Cmovg: {latency: 1, ports: 0b1111},
	isa.Min:   {latency: 1, ports: 0b0111},
	isa.Max:   {latency: 1, ports: 0b0111},
}

// Score is the paper's §5.3 instruction-weight score: mov = 1, cmp = 2,
// conditional move = 4. SIMD min/max are weighted like cmp (single-uop
// ALU operations), movdqa like mov.
func Score(p isa.Program) int {
	s := 0
	for _, in := range p {
		s += InstrScore(in)
	}
	return s
}

// InstrScore is one instruction's §5.3 weight — the additive per-step
// cost the search engine threads through its open list as a secondary
// priority (the program-level metrics below are not additive).
func InstrScore(in isa.Instr) int {
	switch in.Op {
	case isa.Mov:
		return 1
	case isa.Cmp, isa.Min, isa.Max:
		return 2
	case isa.Cmovl, isa.Cmovg:
		return 4
	}
	return 0
}

// operands is an instruction's register/flag read set and the one
// location it writes. Registers are numbered 0..regs-1; the flags are
// pseudo-register "regs". A fixed-size value, so the analyses allocate
// nothing per simulated instruction.
type operands struct {
	reads  [3]int
	nreads int
	write  int
}

// deps returns the operands of an instruction.
func deps(in isa.Instr, regs int) operands {
	flags := regs
	dst, src := int(in.Dst), int(in.Src)
	switch in.Op {
	case isa.Mov:
		return operands{reads: [3]int{src}, nreads: 1, write: dst}
	case isa.Cmp:
		return operands{reads: [3]int{dst, src}, nreads: 2, write: flags}
	case isa.Cmovl, isa.Cmovg:
		// A conditional move truly depends on its old destination value
		// (it may keep it), the source, and the flags.
		return operands{reads: [3]int{dst, src, flags}, nreads: 3, write: dst}
	case isa.Min, isa.Max:
		return operands{reads: [3]int{dst, src}, nreads: 2, write: dst}
	}
	panic(fmt.Sprintf("uarch: unknown op %v", in.Op))
}

// readyTimes returns a zeroed per-register (plus flags) completion-time
// table, backed by buf when the machine fits it.
func readyTimes(buf *[16]int, regs int) []int {
	if regs+1 <= len(buf) {
		return buf[:regs+1]
	}
	return make([]int, regs+1)
}

// CriticalPath returns the latency of the longest true-dependency chain
// through the program, assuming all inputs ready at time 0 and
// move elimination.
func CriticalPath(set *isa.Set, p isa.Program) int {
	regs := set.Regs()
	var buf [16]int
	ready := readyTimes(&buf, regs) // completion time of last writer
	cp := 0
	for _, in := range p {
		ops := deps(in, regs)
		start := 0
		for _, r := range ops.reads[:ops.nreads] {
			if ready[r] > start {
				start = ready[r]
			}
		}
		done := start + classes[in.Op].latency
		ready[ops.write] = done
		if done > cp {
			cp = done
		}
	}
	return cp
}

// Analysis summarizes the static cost of a kernel.
type Analysis struct {
	Instructions int
	Uops         int // instructions that occupy an execution port
	Score        int
	CriticalPath int
	// ILP is the dependence-structure metric of the §5.4 uiCA analysis:
	// executed uops per critical-path cycle. Higher means the kernel
	// exposes more instruction-level parallelism.
	ILP float64
	// Throughput is the estimated steady-state cycles per kernel
	// invocation when invocations on independent data are issued
	// back-to-back.
	Throughput float64
}

// Analyze runs all metrics on p.
func Analyze(set *isa.Set, p isa.Program) Analysis {
	a := Analysis{
		Instructions: len(p),
		Score:        Score(p),
		CriticalPath: CriticalPath(set, p),
	}
	for _, in := range p {
		if !classes[in.Op].eliminated {
			a.Uops++
		}
	}
	if a.CriticalPath > 0 {
		a.ILP = float64(a.Uops) / float64(a.CriticalPath)
	}
	a.Throughput = Throughput(set, p)
	return a
}

// Throughput estimates steady-state cycles per kernel invocation with a
// greedy cycle-accurate simulation: iterations of the kernel on
// independent inputs are issued in order, at most issueWidth
// instructions per cycle, each uop executing on the lowest-numbered free
// eligible port once its operands are ready.
func Throughput(set *isa.Set, p isa.Program) float64 {
	if len(p) == 0 {
		return 0
	}
	const iterations = 64
	regs := set.Regs()

	var busyUntil [numPorts]int // per port: first cycle it is free

	var buf [16]int
	ready := readyTimes(&buf, regs)
	cycle := 0     // current issue cycle
	issued := 0    // instructions issued this cycle
	lastDone := 0  // completion time of the final instruction
	firstDone := 0 // completion time of the first iteration

	for it := 0; it < iterations; it++ {
		// Fresh architectural inputs per iteration: reset dependence on
		// r1..rn (new data loaded), keep port/cycle state.
		for i := range ready {
			ready[i] = 0
		}
		for _, in := range p {
			cl := classes[in.Op]
			ops := deps(in, regs)
			start := cycle
			for _, r := range ops.reads[:ops.nreads] {
				if ready[r] > start {
					start = ready[r]
				}
			}
			var done int
			if cl.eliminated {
				done = start // zero latency, no port
			} else {
				// Find the earliest cycle ≥ start with a free eligible port.
				exec := start
				for {
					found := -1
					for pt := range busyUntil {
						if cl.ports&(1<<pt) != 0 && busyUntil[pt] <= exec {
							found = pt
							break
						}
					}
					if found >= 0 {
						busyUntil[found] = exec + 1
						done = exec + cl.latency
						break
					}
					exec++
				}
			}
			ready[ops.write] = done
			if done > lastDone {
				lastDone = done
			}
			// In-order issue, issueWidth per cycle.
			issued++
			if issued == issueWidth {
				issued = 0
				cycle++
			}
		}
		if it == 0 {
			firstDone = lastDone
		}
	}
	if iterations == 1 {
		return float64(firstDone)
	}
	return float64(lastDone-firstDone) / float64(iterations-1)
}
