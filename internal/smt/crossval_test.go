package smt

import (
	"testing"

	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
)

func TestMinimalLengthsAgreeAcrossTechniques(t *testing.T) {
	// Cross-validation matrix: for every small machine, the enumerative
	// search and the SMT route must agree on the minimal kernel length —
	// including refuting one instruction below it.
	for _, tc := range []struct {
		set  *isa.Set
		want int
	}{
		{isa.NewCmov(2, 1), 4},
		{isa.NewCmov(2, 2), 4}, // an extra scratch register does not help
		{isa.NewMinMax(2, 1), 3},
		{isa.NewMinMax(2, 2), 3},
		{isa.NewMinMax(3, 1), 8},
	} {
		// Enumerative: the exhaustive search finds a kernel at want and
		// certifies that none exists at want-1.
		if res := enum.Run(tc.set, enum.ConfigProof(tc.want)); res.Length != tc.want {
			t.Errorf("%v: enum proof search at %d found length %d", tc.set, tc.want, res.Length)
		}
		if res := enum.Run(tc.set, enum.ConfigProof(tc.want-1)); res.Length != -1 || !res.Proof {
			t.Errorf("%v: enum proof search at %d: length %d, certified %v; want a certified refutation",
				tc.set, tc.want-1, res.Length, res.Proof)
		}
		if tc.set.N > 2 {
			continue // SMT minimality loop gets slow beyond n=2
		}
		// SMT: FindMinimal increases the length until satisfiable.
		sres := FindMinimal(tc.set, Options{Goal: GoalAscCounts0, Encoding: EncodingDense}, 1, tc.want+1, false)
		if sres.Status != Found || len(sres.Program) != tc.want {
			t.Errorf("%v: SMT minimal = %d (%v), want %d", tc.set, len(sres.Program), sres.Status, tc.want)
		}
	}
}
