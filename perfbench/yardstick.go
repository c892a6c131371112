package main

import (
	"math/rand"
	"slices"
	"time"
)

// The host this benchmark runs on shares its CPUs with other machines,
// and its speed drifts by up to 2× from one minute to the next. Every
// time an untraced run reports is therefore scaled to a reference host
// speed: a fixed job that uses no program code (slices.Sort of a fixed
// array) is timed between pieces of measured work, never while program
// code runs, and the phase's times are multiplied by
// yardRef / (the median job time over the phase). A change to the
// program cannot move the job, so the scaling cancels host drift without
// hiding program changes. The factors are printed in the run's context
// line; dividing a reported time by its phase's factor gives the raw
// time.

// yardRef is the median time of one job on the 2-vCPU host the
// benchmark was sized on; scaled times read as times on that host.
const yardRef = 6 * time.Millisecond

type yardstick struct {
	in, buf []int
	jobs    []float64 // every job time read since the last reset
}

func newYardstick() *yardstick {
	rng := rand.New(rand.NewSource(1))
	in := make([]int, 1<<16)
	for i := range in {
		in[i] = rng.Int()
	}
	return &yardstick{in: in, buf: make([]int, len(in))}
}

// read times the job n times. A nil yardstick (the traced run) does
// nothing.
func (y *yardstick) read(n int) {
	if y == nil {
		return
	}
	for i := 0; i < n; i++ {
		copy(y.buf, y.in)
		t0 := time.Now()
		slices.Sort(y.buf)
		y.jobs = append(y.jobs, float64(time.Since(t0)))
	}
}

// factor returns the scale from the host speed seen since the last
// factor call to the reference speed, and starts a new phase.
func (y *yardstick) factor() float64 {
	if y == nil || len(y.jobs) == 0 {
		return 1
	}
	f := float64(yardRef) / median(y.jobs)
	y.jobs = y.jobs[:0]
	return f
}

// scale multiplies a duration by a yardstick factor.
func scale(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}
