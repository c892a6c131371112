package uarch

import "sortsynth/internal/isa"

// RefThroughput is the reference for Throughput: the plain simulation
// of all 64 iterations, decoding every instruction each time, with no
// steady-state shortcut. Tests require both to return the identical
// float64.
func RefThroughput(set *isa.Set, p isa.Program) float64 {
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
	return float64(lastDone-firstDone) / float64(iterations-1)
}
