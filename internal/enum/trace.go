package enum

import "time"

// TraceSample is one measurement of search progress (Figure 1 of the
// paper plots Open and Solutions over time).
type TraceSample struct {
	Elapsed   time.Duration
	Expanded  int64
	Generated int64
	Open      int
	Solutions int64
}

// Trace collects periodic search progress samples.
type Trace struct {
	// SampleEvery is the number of expansions between samples
	// (default 256).
	SampleEvery int64
	Samples     []TraceSample
}

func (t *Trace) every() int64 {
	if t.SampleEvery <= 0 {
		return 256
	}
	return t.SampleEvery
}

func (t *Trace) sample(elapsed time.Duration, r *Result, open int, solutions int64) {
	t.Samples = append(t.Samples, TraceSample{
		Elapsed:   elapsed,
		Expanded:  r.Expanded,
		Generated: r.Generated,
		Open:      open,
		Solutions: solutions,
	})
}
