package enum

import (
	"context"
	"testing"
	"time"

	"sortsynth/internal/isa"
)

// slowOpts is a configuration that cannot finish an n=4 search quickly:
// plain Dijkstra expands millions of states before reaching length 20.
func slowOpts() Options {
	o := ConfigBase()
	o.MaxLen = 20
	return o
}

func TestRunContextCancelStopsSearch(t *testing.T) {
	set := isa.NewCmov(4, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := RunContext(ctx, set, slowOpts())
	elapsed := time.Since(start)
	if !res.Cancelled {
		t.Errorf("Cancelled = false, want true (TimedOut=%v, Length=%d)", res.TimedOut, res.Length)
	}
	if res.TimedOut {
		t.Errorf("TimedOut = true for a plain cancellation")
	}
	if res.Length >= 0 {
		t.Errorf("Length = %d, want -1 on cancellation", res.Length)
	}
	if elapsed > 5*time.Second {
		t.Errorf("search took %v after a 100ms cancel; cancellation is not prompt", elapsed)
	}
}

func TestRunContextDeadlineReportsTimeout(t *testing.T) {
	set := isa.NewCmov(4, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := RunContext(ctx, set, slowOpts())
	elapsed := time.Since(start)
	if !res.TimedOut {
		t.Errorf("TimedOut = false, want true")
	}
	if res.Cancelled {
		t.Errorf("Cancelled = true for a deadline expiry")
	}
	if elapsed > 5*time.Second {
		t.Errorf("search took %v after a 50ms deadline", elapsed)
	}
}

func TestRunContextCompletedSearchUnaffected(t *testing.T) {
	// A context that is never cancelled must not change results.
	set := isa.NewCmov(3, 1)
	opt := ConfigBest()
	opt.MaxLen = 11
	res := RunContext(context.Background(), set, opt)
	if res.Length != 11 {
		t.Fatalf("Length = %d, want 11", res.Length)
	}
	if res.Cancelled || res.TimedOut {
		t.Errorf("spurious stop flags: Cancelled=%v TimedOut=%v", res.Cancelled, res.TimedOut)
	}
}
