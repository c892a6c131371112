package backend

import (
	"context"
	"hash/fnv"
	"sync"
	"time"

	"sortsynth/internal/isa"
)

// fallbackStagger is the delay between successive member launches.
// Enum answers every n ≤ 3 spec class well inside it, so in the common
// case the fallbacks never start.
const fallbackStagger = 25 * time.Millisecond

// Portfolio runs several backends under one context and returns the
// first centrally verified kernel.
//
// Members launch in constructor order: the first at once, member i at
// i × fallbackStagger. Three things change that plan:
//
//   - deadline pressure: with a caller deadline of budget T, no launch
//     slot is later than T/2, so a fallback never gets less time than
//     the first member already had;
//   - a dead field: when every launched member has finished without a
//     verified win, the next member launches at once;
//   - a settled race: a verified winner or a sound refutation
//     (StatusNoProgram) cancels the running members, and the members
//     not yet launched never start. Their race entries read
//     StatusSkipped, counted in SchedStats.SavedLaunches.
//
// Cancellation protocol: every member runs under a child context that
// is cancelled the moment the race settles (or the caller's context
// ends). Synthesize then waits for every member goroutine to observe
// the cancellation and return before it itself returns, so a finished
// portfolio never leaks goroutines or background CPU work.
type Portfolio struct {
	backends []Backend
	clock    Clock // nil = real time; swapped by the dispatch tests
}

// NewPortfolio builds a portfolio over the given backends (at least
// one), in launch order.
func NewPortfolio(bs ...Backend) *Portfolio {
	if len(bs) == 0 {
		panic("backend: NewPortfolio needs at least one backend")
	}
	return &Portfolio{backends: bs}
}

// withClock returns a copy of p on the given clock (tests only).
func (p *Portfolio) withClock(c Clock) *Portfolio {
	cp := *p
	cp.clock = c
	return &cp
}

func (p *Portfolio) clockOrReal() Clock {
	if p.clock != nil {
		return p.clock
	}
	return realClock{}
}

// Name implements Backend.
func (p *Portfolio) Name() string { return "portfolio" }

// Backends returns the racers' names in race order.
func (p *Portfolio) Backends() []string {
	names := make([]string, len(p.backends))
	for i, b := range p.backends {
		names[i] = b.Name()
	}
	return names
}

// memberSeed derives the seed member name receives from the spec's base
// seed: a pure function of (base, name), independent of the member's
// position in the launch order and of race timing. Keying it by member
// identity gives two randomized members distinct seed streams, and
// keeps a member's answer the same in any portfolio that lists it. The
// seed-pinning test holds this invariant.
func memberSeed(base int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return base ^ int64(h.Sum64()&0x7fffffffffffffff)
}

// memberSpec is the spec member i races with: identical to the caller's
// spec except for the pinned per-member seed. Deterministic members
// ignore Seed entirely, so the derivation only ever matters where it
// should — the randomized members.
func (p *Portfolio) memberSpec(spec Spec, i int) Spec {
	spec.Seed = memberSeed(spec.Seed, p.backends[i].Name())
	return spec
}

// outcome is one racer's report back to the dispatch loop.
type outcome struct {
	idx int
	res *Result
	err error
}

// Synthesize implements Backend: it launches the members on the
// staggered plan documented on Portfolio, each through Run (so every
// candidate winner is verified before it can settle the race), and
// reports the per-member outcomes in Result.Race and the dispatch
// accounting in Result.Sched.
//
// With no winner, the aggregate status is the strongest verdict any
// member reached: a sound refutation (StatusNoProgram) beats a spent
// budget (StatusExhausted), which beats a timeout, which beats
// cancellation (see aggregateStatus). If every launched member failed
// with an error, the first error is returned.
func (p *Portfolio) Synthesize(ctx context.Context, set *isa.Set, spec Spec) (*Result, error) {
	// The race is heterogeneous: most members are single-solution
	// engines, so a non-shortest objective would degenerate into "race
	// enum against a field of guaranteed errors". Reject it up front.
	if err := requireShortest(p.Name(), spec); err != nil {
		return nil, err
	}
	clock := p.clockOrReal()
	start := clock.Now()
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Launch slots, clamped by deadline pressure. Slots are fixed here,
	// so the launch order is a pure function of the deadline and the
	// fake-clock tests can replay it exactly.
	slots := make([]time.Duration, len(p.backends))
	var pressure time.Duration // 0 = no deadline
	if dl, ok := ctx.Deadline(); ok {
		pressure = dl.Sub(start) / 2
	}
	for i := range slots {
		d := time.Duration(i) * fallbackStagger
		if pressure > 0 && d > pressure {
			d = pressure
		}
		slots[i] = d
	}

	results := make(chan outcome, len(p.backends))
	var wg sync.WaitGroup
	sstats := &SchedStats{}
	running := 0
	launch := func(idx int) {
		if idx > 0 {
			sstats.FallbackStarts++
		}
		running++
		wg.Add(1)
		go func(idx int, b Backend) {
			defer wg.Done()
			res, err := Run(raceCtx, b, set, p.memberSpec(spec, idx))
			results <- outcome{idx: idx, res: res, err: err}
		}(idx, p.backends[idx])
	}

	race := make([]RaceEntry, len(p.backends))
	var winner *Result
	winnerIdx := -1
	var firstErr error
	errCount := 0
	next := 0 // next member to launch
	for {
		// Launch everything due. The first member always launches; a
		// settled race has cancelled raceCtx, so nothing launches after
		// it. With nothing running, the next member is due at once:
		// every launched member already failed, so there is nothing
		// left to stagger behind.
		for next < len(p.backends) && (next == 0 || raceCtx.Err() == nil) {
			if running > 0 && clock.Now().Before(start.Add(slots[next])) {
				break
			}
			launch(next)
			next++
		}
		if running == 0 {
			break
		}
		var timerC <-chan time.Time
		var timer Timer
		if next < len(p.backends) && raceCtx.Err() == nil {
			timer = clock.NewTimer(start.Add(slots[next]).Sub(clock.Now()))
			timerC = timer.C()
		}
		select {
		case o := <-results:
			running--
			name := p.backends[o.idx].Name()
			switch {
			case o.err != nil:
				race[o.idx] = RaceEntry{Backend: name, Status: StatusError, Err: o.err.Error()}
				errCount++
				if firstErr == nil {
					firstErr = o.err
				}
			default:
				race[o.idx] = RaceEntry{Backend: name, Status: o.res.Status, Stats: o.res.Stats}
				switch {
				case o.res.Status == StatusFound && winner == nil:
					winner = o.res
					winnerIdx = o.idx
					cancel() // stop the losers; pending members never launch
				case o.res.Status == StatusNoProgram:
					// A sound refutation is the final verdict: no other
					// member can find a program within the budget.
					cancel()
				}
			}
		case <-timerC:
		}
		if timer != nil {
			timer.Stop()
		}
	}
	wg.Wait()

	launched := 0
	for i := range race {
		if race[i].Backend == "" {
			race[i] = RaceEntry{Backend: p.backends[i].Name(), Status: StatusSkipped}
		} else {
			launched++
		}
	}
	sstats.SavedLaunches = len(p.backends) - launched
	if winner != nil {
		if winnerIdx == 0 {
			sstats.FirstPickWin = true
		} else {
			sstats.FallbackWin = true
		}
	}

	if errCount == launched {
		return nil, firstErr
	}
	return p.finish(ctx, spec, race, winner, clock.Now().Sub(start), sstats), nil
}

// finish assembles the portfolio Result.
func (p *Portfolio) finish(ctx context.Context, spec Spec, race []RaceEntry, winner *Result, elapsed time.Duration, sstats *SchedStats) *Result {
	// The portfolio's own Stats aggregate the racers' work: total nodes
	// across every engine that ran, under the race's wall clock.
	stats := Stats{Elapsed: elapsed}
	for _, e := range race {
		stats.Nodes += e.Stats.Nodes
		stats.Generated += e.Stats.Generated
	}
	res := &Result{
		Backend: p.Name(),
		Length:  spec.MaxLen,
		Race:    race,
		Stats:   stats,
		Sched:   sstats,
	}
	if winner != nil {
		res.Status = StatusFound
		res.Program = winner.Program
		res.Length = winner.Length
		res.Optimal = winner.Optimal
		res.Winner = winner.Backend
		return res
	}
	res.Status = aggregateStatus(ctx, race)
	return res
}

// aggregateStatus picks the no-winner verdict in the documented
// preference order: a sound refutation (StatusNoProgram) beats a spent
// budget (StatusExhausted), which beats a timeout — whether a racer's
// own deadline or the caller's — which beats cancellation. In
// particular, a racer's definitive verdict is never downgraded just
// because the race's context ended afterwards, and a race in which
// every backend timed out reports StatusTimedOut even when the caller's
// context carried no deadline of its own. Skipped members claim
// nothing: the verdict rests on the members that ran.
func aggregateStatus(ctx context.Context, race []RaceEntry) Status {
	hasExhausted, hasTimedOut := false, false
	for _, e := range race {
		switch e.Status {
		case StatusNoProgram:
			return StatusNoProgram
		case StatusExhausted:
			hasExhausted = true
		case StatusTimedOut:
			hasTimedOut = true
		}
	}
	if hasExhausted {
		return StatusExhausted
	}
	if hasTimedOut {
		return StatusTimedOut
	}
	if ctx.Err() != nil {
		return stopStatus(ctx)
	}
	return StatusCancelled
}
