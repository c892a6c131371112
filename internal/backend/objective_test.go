package backend

import (
	"context"
	"errors"
	"testing"

	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
)

// TestObjectiveThroughRun drives a fastest-objective spec through the
// registry choke point: the winner must come back verified (backend.Run
// re-checks it), optimal-length, and with the enumeration stats the
// serving layers bake.
func TestObjectiveThroughRun(t *testing.T) {
	set := isa.NewCmov(3, 1)
	res, err := Default().Synthesize(context.Background(), "enum", set, Spec{
		MaxLen:    11,
		Objective: enum.ObjectiveFastest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFound || res.Length != 11 {
		t.Fatalf("status %v length %d, want found/11", res.Status, res.Length)
	}
	if res.Solutions < 2 || res.Cost <= 0 {
		t.Errorf("Solutions %d Cost %v: objective run should report enumeration stats", res.Solutions, res.Cost)
	}

	short, err := Default().Synthesize(context.Background(), "enum", set, Spec{MaxLen: 11})
	if err != nil {
		t.Fatal(err)
	}
	if short.Program.Format(set.N) == res.Program.Format(set.N) {
		t.Error("shortest and fastest should diverge at n=3 (Neri)")
	}
}

// TestSingleSolutionBackendsRejectObjectives pins the typed validation
// error on every backend without a solution set to rank.
func TestSingleSolutionBackendsRejectObjectives(t *testing.T) {
	set := isa.NewCmov(2, 1)
	for _, name := range []string{"smt", "cp", "ilp", "stoke", "mcts", "plan"} {
		_, err := Default().Synthesize(context.Background(), name, set, Spec{
			MaxLen:    4,
			Objective: enum.ObjectiveFastest,
		})
		var objErr *UnsupportedObjectiveError
		if !errors.As(err, &objErr) {
			t.Errorf("%s: err = %v, want *UnsupportedObjectiveError", name, err)
			continue
		}
		if objErr.Backend != name || objErr.Objective != enum.ObjectiveFastest {
			t.Errorf("%s: error fields %+v", name, objErr)
		}
	}
}
