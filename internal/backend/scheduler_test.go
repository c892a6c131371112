package backend

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"sortsynth/internal/isa"
)

// fakeClock is a manually advanced Clock: timers fire only when the
// test calls Advance past their deadline, so the portfolio replays
// the exact same launch schedule on every run, under -race, regardless
// of machine load.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

func newFakeClock() *fakeClock {
	// An arbitrary fixed epoch: fake time is relative, never wall time.
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) NewTimer(d time.Duration) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{mu: &c.mu, ch: make(chan time.Time, 1), when: c.now.Add(d)}
	if d <= 0 {
		t.fired = true
		t.ch <- c.now
	} else {
		c.timers = append(c.timers, t)
	}
	return t
}

// Advance moves fake time forward and fires every timer now due.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	for _, t := range c.timers {
		if !t.fired && !t.when.After(c.now) {
			t.fired = true
			t.ch <- c.now
		}
	}
}

type fakeTimer struct {
	mu    *sync.Mutex
	ch    chan time.Time
	when  time.Time
	fired bool
}

func (t *fakeTimer) C() <-chan time.Time { return t.ch }
func (t *fakeTimer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	stopped := !t.fired
	t.fired = true
	return stopped
}

// launchEvent records one scripted backend starting work, stamped with
// the fake clock's time at entry.
type launchEvent struct {
	name string
	at   time.Duration // since the race's fake start
}

// scriptedRig wires scripted member backends to one launch-event stream
// and per-member win triggers.
type scriptedRig struct {
	clock    *fakeClock
	start    time.Time
	launches chan launchEvent
	wins     map[string]chan isa.Program
}

func newScriptedRig(clock *fakeClock, members int) *scriptedRig {
	return &scriptedRig{
		clock:    clock,
		start:    clock.Now(),
		launches: make(chan launchEvent, members),
		wins:     make(map[string]chan isa.Program),
	}
}

// waiter scripts a member that records its launch, then blocks until it
// is told to win (returning a StatusFound claim) or the race cancels it.
func (r *scriptedRig) waiter(name string) *fakeBackend {
	win := make(chan isa.Program, 1)
	r.wins[name] = win
	return &fakeBackend{name: name, fn: func(ctx context.Context, _ *isa.Set, _ Spec) (*Result, error) {
		r.launches <- launchEvent{name: name, at: r.clock.Now().Sub(r.start)}
		select {
		case p := <-win:
			return &Result{Backend: name, Status: StatusFound, Program: p, Length: len(p)}, nil
		case <-ctx.Done():
			return &Result{Backend: name, Status: stopStatus(ctx)}, nil
		}
	}}
}

// failer scripts a member that records its launch and fails immediately
// with the given status.
func (r *scriptedRig) failer(name string, status Status) *fakeBackend {
	return &fakeBackend{name: name, fn: func(ctx context.Context, _ *isa.Set, _ Spec) (*Result, error) {
		r.launches <- launchEvent{name: name, at: r.clock.Now().Sub(r.start)}
		return &Result{Backend: name, Status: status}, nil
	}}
}

// expectLaunch asserts the next launch event.
func (r *scriptedRig) expectLaunch(t *testing.T, name string, at time.Duration) {
	t.Helper()
	select {
	case ev := <-r.launches:
		if ev.name != name || ev.at != at {
			t.Fatalf("launch = %s@%v, want %s@%v", ev.name, ev.at, name, at)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no launch within 5s, want %s@%v", name, at)
	}
}

// TestStaggeredDispatchOrder drives the portfolio [c, a, b] on the fake
// clock: the first member launches alone at t=0, each fallback launches
// exactly at its fallbackStagger slot in constructor order, and the
// last one's verified win cancels the still-running earlier members.
func TestStaggeredDispatchOrder(t *testing.T) {
	set := isa.NewCmov(2, 1)
	good := correctKernel(t, set)
	clock := newFakeClock()
	rig := newScriptedRig(clock, 3)
	a, b, c := rig.waiter("a"), rig.waiter("b"), rig.waiter("c")

	const S = fallbackStagger
	pf := NewPortfolio(c, a, b).withClock(clock)

	type syn struct {
		res *Result
		err error
	}
	done := make(chan syn, 1)
	go func() {
		res, err := Run(context.Background(), pf, set, Spec{MaxLen: 4})
		done <- syn{res, err}
	}()

	rig.expectLaunch(t, "c", 0)
	clock.Advance(S)
	rig.expectLaunch(t, "a", S)
	clock.Advance(S)
	rig.expectLaunch(t, "b", 2*S)
	rig.wins["b"] <- good

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	if res.Status != StatusFound || res.Winner != "b" {
		t.Fatalf("status %v winner %q, want found by b", res.Status, res.Winner)
	}
	for _, idx := range []int{0, 1} { // c and a were cancelled mid-run
		if res.Race[idx].Status != StatusCancelled {
			t.Fatalf("race[%d] = %+v, want cancelled", idx, res.Race[idx])
		}
	}
	if res.Sched == nil {
		t.Fatal("portfolio result carries no SchedStats")
	}
	want := SchedStats{FallbackStarts: 2, FallbackWin: true}
	if *res.Sched != want {
		t.Fatalf("sched = %+v, want %+v", *res.Sched, want)
	}
}

// TestStaggeredFirstPickWinParksFallbacks proves the payoff case: the
// first member wins before any stagger slot elapses, so no
// fallback ever launches — their entries read skipped and the saved
// launches are counted. The fake clock never advances, so a fallback
// launching at all would be a scheduling bug, not a timing accident.
func TestStaggeredFirstPickWinParksFallbacks(t *testing.T) {
	set := isa.NewCmov(2, 1)
	good := correctKernel(t, set)
	clock := newFakeClock()
	rig := newScriptedRig(clock, 4)
	a, b, c, d := rig.waiter("a"), rig.waiter("b"), rig.waiter("c"), rig.waiter("d")
	rig.wins["a"] <- good

	pf := NewPortfolio(a, b, c, d).withClock(clock)

	res, err := Run(context.Background(), pf, set, Spec{MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFound || res.Winner != "a" {
		t.Fatalf("status %v winner %q, want found by a", res.Status, res.Winner)
	}
	rig.expectLaunch(t, "a", 0)
	select {
	case ev := <-rig.launches:
		t.Fatalf("fallback %s launched despite the first pick winning", ev.name)
	default:
	}
	for _, idx := range []int{1, 2, 3} {
		if res.Race[idx].Status != StatusSkipped {
			t.Fatalf("race[%d] = %+v, want skipped", idx, res.Race[idx])
		}
	}
	want := SchedStats{FirstPickWin: true, SavedLaunches: 3}
	if *res.Sched != want {
		t.Fatalf("sched = %+v, want %+v", *res.Sched, want)
	}
}

// fakeDeadlineCtx reports a deadline in fake time without ever firing:
// the scheduler reads Deadline() to compute launch pressure, and the
// test controls everything else.
type fakeDeadlineCtx struct {
	context.Context
	dl time.Time
}

func (c fakeDeadlineCtx) Deadline() (time.Time, bool) { return c.dl, true }

// TestStaggeredDeadlinePressure gives the race a budget T of one
// stagger, so both fallback slots (T and 2T) lie past T/2. Pressure
// clamps every slot to T/2: both fallbacks launch together the moment
// half the budget is gone.
func TestStaggeredDeadlinePressure(t *testing.T) {
	set := isa.NewCmov(2, 1)
	good := correctKernel(t, set)
	clock := newFakeClock()
	rig := newScriptedRig(clock, 3)
	a, b, c := rig.waiter("a"), rig.waiter("b"), rig.waiter("c")

	const T = fallbackStagger
	ctx := fakeDeadlineCtx{Context: context.Background(), dl: clock.Now().Add(T)}
	pf := NewPortfolio(a, b, c).withClock(clock)

	done := make(chan *Result, 1)
	go func() {
		res, err := Run(ctx, pf, set, Spec{MaxLen: 4})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()

	rig.expectLaunch(t, "a", 0)
	clock.Advance(T / 2)
	// Both fallbacks' slots clamp to T/2; their launch burst order within
	// the instant is scheduler-internal, so collect as a set.
	got := map[string]time.Duration{}
	for i := 0; i < 2; i++ {
		select {
		case ev := <-rig.launches:
			got[ev.name] = ev.at
		case <-time.After(5 * time.Second):
			t.Fatalf("fallback %d never launched under deadline pressure", i+1)
		}
	}
	for _, name := range []string{"b", "c"} {
		if at, ok := got[name]; !ok || at != T/2 {
			t.Fatalf("launches = %v, want b and c at %v", got, T/2)
		}
	}
	rig.wins["c"] <- good
	res := <-done
	if res == nil || res.Status != StatusFound || res.Winner != "c" {
		t.Fatalf("result %+v, want found by c", res)
	}
	if res.Sched.FallbackStarts != 2 || !res.Sched.FallbackWin {
		t.Fatalf("sched = %+v, want 2 fallback starts and a fallback win", *res.Sched)
	}
}

// TestStaggeredDeadFieldLaunchesImmediately: when every launched member
// has already failed, the next fallback launches at once — there is
// nothing left to stagger behind, so waiting out the slot would be pure
// dead air. The clock never advances; the fallback must still launch.
func TestStaggeredDeadFieldLaunchesImmediately(t *testing.T) {
	set := isa.NewCmov(2, 1)
	good := correctKernel(t, set)
	clock := newFakeClock()
	rig := newScriptedRig(clock, 2)
	a := rig.failer("a", StatusExhausted)
	b := rig.waiter("b")

	pf := NewPortfolio(a, b).withClock(clock)

	done := make(chan *Result, 1)
	go func() {
		res, err := Run(context.Background(), pf, set, Spec{MaxLen: 4})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()

	rig.expectLaunch(t, "a", 0)
	rig.expectLaunch(t, "b", 0) // dead field: no clock advance needed
	rig.wins["b"] <- good
	res := <-done
	if res == nil || res.Status != StatusFound || res.Winner != "b" {
		t.Fatalf("result %+v, want found by b", res)
	}
	if res.Race[0].Status != StatusExhausted {
		t.Fatalf("race[0] = %+v, want exhausted", res.Race[0])
	}
	if res.Sched.FallbackStarts != 1 || !res.Sched.FallbackWin || res.Sched.SavedLaunches != 0 {
		t.Fatalf("sched = %+v", *res.Sched)
	}
}

// TestStaggeredCancelSkipsPendingAndDoesNotLeak cancels the caller's
// context while fallbacks are still parked: the launched member reads
// cancelled, the parked ones read skipped, and — the
// TestPortfolioAllTimeoutNoGoroutineLeak mirror — every racer goroutine
// is reaped before Synthesize returns.
func TestStaggeredCancelSkipsPendingAndDoesNotLeak(t *testing.T) {
	set := isa.NewCmov(2, 1)
	clock := newFakeClock()
	rig := newScriptedRig(clock, 3)
	a, b, c := rig.waiter("a"), rig.waiter("b"), rig.waiter("c")

	pf := NewPortfolio(a, b, c).withClock(clock)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *Result, 1)
	go func() {
		res, err := Run(ctx, pf, set, Spec{MaxLen: 4})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	rig.expectLaunch(t, "a", 0)
	cancel()
	res := <-done
	if res == nil {
		t.Fatal("no result")
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status = %v, want cancelled", res.Status)
	}
	if res.Race[0].Status != StatusCancelled {
		t.Fatalf("race[0] = %+v, want cancelled", res.Race[0])
	}
	for _, idx := range []int{1, 2} {
		if res.Race[idx].Status != StatusSkipped {
			t.Fatalf("race[%d] = %+v, want skipped", idx, res.Race[idx])
		}
	}
	if res.Sched.SavedLaunches != 2 {
		t.Fatalf("sched = %+v, want 2 saved launches", *res.Sched)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before race, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStaggeredRefutationFirstEndsRace: the first member soundly
// refutes the budget before any slot elapses. The refutation is the
// final verdict, so the race ends at once and the fallbacks stay
// parked — the clock never advances, so a launch would be a dispatch
// bug, and the dead-field rule must not fire.
func TestStaggeredRefutationFirstEndsRace(t *testing.T) {
	set := isa.NewCmov(2, 1)
	clock := newFakeClock()
	rig := newScriptedRig(clock, 3)
	a := rig.failer("a", StatusNoProgram)
	b, c := rig.waiter("b"), rig.waiter("c")

	res, err := Run(context.Background(), NewPortfolio(a, b, c).withClock(clock), set, Spec{MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNoProgram {
		t.Fatalf("status = %v, want %v", res.Status, StatusNoProgram)
	}
	rig.expectLaunch(t, "a", 0)
	select {
	case ev := <-rig.launches:
		t.Fatalf("fallback %s launched after a sound refutation", ev.name)
	default:
	}
	for _, idx := range []int{1, 2} {
		if res.Race[idx].Status != StatusSkipped {
			t.Fatalf("race[%d] = %+v, want skipped", idx, res.Race[idx])
		}
	}
	want := SchedStats{SavedLaunches: 2}
	if *res.Sched != want {
		t.Fatalf("sched = %+v, want %+v", *res.Sched, want)
	}
}

// TestStaggeredRefutationSecondEndsRace: the first member is still
// searching when the second, launched at its slot, soundly refutes the
// budget. The refutation cancels the running first member and parks
// the third.
func TestStaggeredRefutationSecondEndsRace(t *testing.T) {
	set := isa.NewCmov(2, 1)
	clock := newFakeClock()
	rig := newScriptedRig(clock, 3)
	a := rig.waiter("a")
	b := rig.failer("b", StatusNoProgram)
	c := rig.waiter("c")

	done := make(chan *Result, 1)
	go func() {
		res, err := Run(context.Background(), NewPortfolio(a, b, c).withClock(clock), set, Spec{MaxLen: 3})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()

	rig.expectLaunch(t, "a", 0)
	clock.Advance(fallbackStagger)
	rig.expectLaunch(t, "b", fallbackStagger)
	var res *Result
	select {
	case res = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("race still running 5s after a sound refutation")
	}
	if res == nil || res.Status != StatusNoProgram {
		t.Fatalf("result %+v, want no-program", res)
	}
	if res.Race[0].Status != StatusCancelled {
		t.Fatalf("race[0] = %+v, want cancelled", res.Race[0])
	}
	if res.Race[2].Status != StatusSkipped {
		t.Fatalf("race[2] = %+v, want skipped", res.Race[2])
	}
	want := SchedStats{FallbackStarts: 1, SavedLaunches: 1}
	if *res.Sched != want {
		t.Fatalf("sched = %+v, want %+v", *res.Sched, want)
	}
}

// TestPortfolioSeedPinning is the seed-normalization regression test:
// each member's seed is a pure function of (spec.Seed, member name), so
// the same members listed in either launch order receive identical
// seeds — and therefore return identical winners — no matter their
// position or the race's timing.
func TestPortfolioSeedPinning(t *testing.T) {
	set := isa.NewCmov(2, 1)
	good := correctKernel(t, set)
	const base = 42

	runOrder := func(t *testing.T, randFirst bool) (map[string]int64, string) {
		var mu sync.Mutex
		seeds := map[string]int64{}
		record := func(name string, spec Spec) {
			mu.Lock()
			defer mu.Unlock()
			seeds[name] = spec.Seed
		}
		// rand fails instantly (recording its seed); det wins. Launched
		// first, rand's failure leaves a dead field, so det launches with
		// no clock advance; launched second, rand's slot comes only
		// after det has already won. Every member that launches
		// observes its seed.
		det := &fakeBackend{name: "det", fn: func(ctx context.Context, _ *isa.Set, spec Spec) (*Result, error) {
			record("det", spec)
			return &Result{Backend: "det", Status: StatusFound, Program: good, Length: len(good)}, nil
		}}
		rnd := &fakeBackend{name: "rand", fn: func(ctx context.Context, _ *isa.Set, spec Spec) (*Result, error) {
			record("rand", spec)
			return &Result{Backend: "rand", Status: StatusExhausted}, nil
		}}
		pf := NewPortfolio(det, rnd)
		if randFirst {
			pf = NewPortfolio(rnd, det)
		}
		res, err := Run(context.Background(), pf.withClock(newFakeClock()), set, Spec{MaxLen: 4, Seed: base})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusFound {
			t.Fatalf("status %v, want found", res.Status)
		}
		return seeds, res.Winner
	}

	detFirst, detFirstWinner := runOrder(t, false)
	randFirst, randFirstWinner := runOrder(t, true)

	if detFirstWinner != randFirstWinner {
		t.Fatalf("winner diverged: %q with det first vs %q with rand first", detFirstWinner, randFirstWinner)
	}
	if want := memberSeed(base, "det"); detFirst["det"] != want || randFirst["det"] != want {
		t.Fatalf("seed for det: %d (det first) %d (rand first), want pinned %d",
			detFirst["det"], randFirst["det"], want)
	}
	if want := memberSeed(base, "rand"); randFirst["rand"] != want {
		t.Fatalf("seed for rand: %d, want pinned %d", randFirst["rand"], want)
	}
	if randFirst["det"] == randFirst["rand"] {
		t.Fatal("members share one seed stream; per-member derivation lost")
	}
}
