package enum

import (
	"testing"

	"sortsynth/internal/state"
)

// TestFlatTableMatchesMap drives random get / getOrPut traffic through
// the flat table and a reference Go map and asserts identical observable
// behavior, including growth across several doublings from a
// deliberately tiny initial capacity.
func TestFlatTableMatchesMap(t *testing.T) {
	if err := CheckFlatTableConformance(3, 20000); err != nil {
		t.Fatal(err)
	}
}

// TestFlatTableProbeCollisions pins the linear-probing path: keys crafted
// to share the same home slot must all be stored and retrieved, and a
// growth rehash must keep them reachable.
func TestFlatTableProbeCollisions(t *testing.T) {
	tbl := newFlatTable(16)
	home := uint64(5)
	var keys []state.Key128
	for i := 0; i < 40; i++ {
		// Same low bits of Lo at every capacity the table will pass
		// through (which is what selects the home slot), distinct Hi.
		keys = append(keys, state.Key128{Hi: uint64(i), Lo: home + uint64(i)<<40})
	}
	for i, k := range keys {
		if _, inserted := tbl.getOrPut(k, int32(i)); !inserted {
			t.Fatalf("key %d reported as existing", i)
		}
	}
	for i, k := range keys {
		if got, ok := tbl.get(k); !ok || got != int32(i) {
			t.Fatalf("get(key %d) = (%d, %v), want (%d, true)", i, got, ok, i)
		}
	}
	if tbl.count() != len(keys) {
		t.Fatalf("count = %d, want %d", tbl.count(), len(keys))
	}
}
