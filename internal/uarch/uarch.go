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
// eligible port once its operands are ready. The estimate is the mean
// spacing of the last completions over the iterations after the first.
//
// The state one iteration hands the next is the issue cycle, the port
// busy times and the latest completion; operand readiness resets every
// iteration. The simulation stops as soon as that state repeats up to a
// shift in time and extrapolates the rest, which gives the same integer
// cycle counts as simulating every iteration (DESIGN.md §14 "The uarch
// model"). Two normalizations make the state repeat:
//
//   - relative to the iteration's first issue cycle, with busy times
//     below it clipped to it: every instruction executes at or after
//     that cycle, so the clipped state decides the iteration;
//   - relative to the least busy time among the ports the program uses,
//     while every such port is busy past the iteration's last issue
//     cycle: then the issue cycle never decides when a uop executes.
//     A period counts only if that origin advances at least as fast as
//     the issue cycle, so the condition holds for every later
//     iteration too.
func Throughput(set *isa.Set, p isa.Program) float64 {
	if len(p) == 0 {
		return 0
	}
	const iterations = 64
	regs := set.Regs()

	var stepBuf [32]step
	steps := stepBuf[:0]
	if len(p) > len(stepBuf) {
		steps = make([]step, 0, len(p))
	}
	var used uint8 // ports any instruction can use
	for _, in := range p {
		st := step{deps(in, regs), classes[in.Op]}
		used |= st.ports
		steps = append(steps, st)
	}
	// Iterations phase apart start at the same slot of an issue cycle.
	phase := 1
	for phase*len(p)%issueWidth != 0 {
		phase++
	}

	var hist [iterations]snapshot // state at the start of each iteration
	var busy [numPorts]int        // per port: first cycle it is free
	var buf [16]int
	ready := readyTimes(&buf, regs)
	cycle := 0         // current issue cycle
	issued := 0        // instructions issued this cycle
	lastDone := 0      // completion time of the latest instruction
	notPortBound := -1 // latest iteration that was not port-bound

	for it := 0; it < iterations; it++ {
		s := &hist[it]
		*s = snapshot{cycle: cycle, busy: busy, lastDone: lastDone, origin: leastBusy(&busy, used)}
		lastIssue := (it*len(p) + len(p) - 1) / issueWidth
		s.portBound = used != 0 && s.origin >= lastIssue
		for j := it - phase; j >= 0; j -= phase {
			shift, ok := issueBoundShift(&hist[j], s)
			if !ok && j > notPortBound {
				shift, ok = portBoundShift(&hist[j], s, used)
			}
			if ok {
				// Iteration it repeats iteration j shifted by shift
				// cycles, and so does every later one. hist[t+1].lastDone
				// is the latest completion after iteration t.
				period := it - j
				q, r := (iterations-1-j)/period, (iterations-1-j)%period
				last := hist[j+r+1].lastDone + q*shift
				return float64(last-hist[1].lastDone) / float64(iterations-1)
			}
		}
		if !s.portBound {
			notPortBound = it
		}

		clear(ready)
		for _, st := range steps {
			start := cycle
			for _, r := range st.reads[:st.nreads] {
				start = max(start, ready[r])
			}
			done := start // an eliminated move: zero latency, no port
			if !st.eliminated {
				exec, pt := freePort(&busy, st.ports, start)
				busy[pt] = exec + 1
				done = exec + st.latency
			}
			ready[st.write] = done
			lastDone = max(lastDone, done)
			// In-order issue, issueWidth per cycle.
			issued++
			if issued == issueWidth {
				issued = 0
				cycle++
			}
		}
	}
	return float64(lastDone-hist[1].lastDone) / float64(iterations-1)
}

// step is one instruction decoded for the simulation.
type step struct {
	operands
	classInfo
}

// snapshot is the simulation state at the start of one iteration.
type snapshot struct {
	cycle    int // issue cycle of the iteration's first instruction
	busy     [numPorts]int
	lastDone int
	// origin is the least busy time among the ports the program uses;
	// portBound reports that it is at or past the iteration's last
	// issue cycle.
	origin    int
	portBound bool
}

// issueBoundShift reports whether b is a, shifted by the issue cycles
// between them, once busy times and lastDone are clipped to the
// iteration's first issue cycle.
func issueBoundShift(a, b *snapshot) (int, bool) {
	for pt := range a.busy {
		if max(a.busy[pt], a.cycle)-a.cycle != max(b.busy[pt], b.cycle)-b.cycle {
			return 0, false
		}
	}
	if max(a.lastDone, a.cycle)-a.cycle != max(b.lastDone, b.cycle)-b.cycle {
		return 0, false
	}
	return b.cycle - a.cycle, true
}

// portBoundShift reports whether b is a, shifted by the advance of the
// least busy used port, with the used ports' busy times and lastDone
// taken relative to it. The caller checks that every iteration from a
// up to b was port-bound; the shift must be at least the issue cycles
// between them, so later iterations stay port-bound.
func portBoundShift(a, b *snapshot, used uint8) (int, bool) {
	shift := b.origin - a.origin
	if shift < b.cycle-a.cycle {
		return 0, false
	}
	for pt := range a.busy {
		if used&(1<<pt) != 0 && a.busy[pt]-a.origin != b.busy[pt]-b.origin {
			return 0, false
		}
	}
	if a.lastDone-a.origin != b.lastDone-b.origin {
		return 0, false
	}
	return shift, true
}

// leastBusy returns the least busy time among the ports in mask, or 0
// for an empty mask.
func leastBusy(busy *[numPorts]int, mask uint8) int {
	least := -1
	for pt, b := range busy {
		if mask&(1<<pt) != 0 && (least < 0 || b < least) {
			least = b
		}
	}
	return max(least, 0)
}

// freePort returns the earliest cycle ≥ start at which one of the ports
// in mask is free, and the lowest-numbered port free then.
func freePort(busy *[numPorts]int, mask uint8, start int) (exec, port int) {
	port = -1
	for pt, b := range busy {
		if mask&(1<<pt) == 0 {
			continue
		}
		if b <= start {
			return start, pt
		}
		if port < 0 || b < busy[port] {
			port = pt
		}
	}
	return busy[port], port
}
