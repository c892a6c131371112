package backend

import "time"

// Clock abstracts wall time for the staggered Portfolio scheduler so
// the dispatch tests can drive launch slots deterministically instead
// of sleeping. Production code always uses the real clock; tests swap
// in a fake via Portfolio.withClock.
type Clock interface {
	Now() time.Time
	// NewTimer returns a timer that fires once after d. A non-positive d
	// must fire (real time.NewTimer already does).
	NewTimer(d time.Duration) Timer
}

// Timer is the subset of *time.Timer the scheduler needs.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
}

// realClock is the production Clock.
type realClock struct{}

func (realClock) Now() time.Time                 { return time.Now() }
func (realClock) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (t realTimer) C() <-chan time.Time { return t.t.C }
func (t realTimer) Stop() bool          { return t.t.Stop() }
