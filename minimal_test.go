package sortsynth

import (
	"testing"
	"time"

	"sortsynth/internal/sortnet"
)

func TestMinimalMinMaxN3(t *testing.T) {
	// From the sorting-network kernel's length, the step-down must reach
	// the optimal min/max n=3 kernel and certify that nothing shorter
	// exists.
	set := NewMinMaxSet(3, 1)
	upper := len(sortnet.Optimal(3).CompileMinMax()) // 9
	res, err := minimal(set, upper, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFound || res.Length != 8 {
		t.Fatalf("status %s, length %d; want a kernel of length 8", res.Status, res.Length)
	}
	if !res.Optimal {
		t.Error("min/max minimality not certified")
	}
	if !Verify(set, res.Program) {
		t.Error("minimal min/max kernel does not sort")
	}
}

func TestMinimalUpperTooSmall(t *testing.T) {
	// No kernel of length ≤ 3 exists for n=2: below a too-small upper
	// bound the search must certify the negative outcome. The
	// sorting-network bound of SynthesizeMinimal is never too small, so
	// this case is reachable only through the helper.
	res, err := minimal(NewCmovSet(2, 1), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNoProgram {
		t.Fatalf("status %s (length %d), want a certified no-program", res.Status, res.Length)
	}
}
