package enum

import (
	"math/rand"
	"testing"

	"sortsynth/internal/state"
)

// TestFlatTableMatchesMap drives random get / getOrPut traffic through
// the flat table and a reference Go map and asserts identical observable
// behavior, including growth across several doublings from a
// deliberately tiny initial capacity.
func TestFlatTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := newFlatTable(1)
	ref := map[state.Key128]int32{}
	// A small key universe forces frequent hits; random 128-bit keys
	// would almost never collide.
	keys := make([]state.Key128, 300)
	for i := range keys {
		keys[i] = state.Key128{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	for step := 0; step < 20000; step++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(2) {
		case 0:
			got, ok := tbl.get(k)
			want, wok := ref[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("step %d: get = (%d, %v), want (%d, %v)", step, got, ok, want, wok)
			}
		case 1:
			v := int32(rng.Intn(1 << 20))
			got, inserted := tbl.getOrPut(k, v)
			want, existed := ref[k]
			if inserted == existed {
				t.Fatalf("step %d: getOrPut inserted=%v, map existed=%v", step, inserted, existed)
			}
			if existed && got != want {
				t.Fatalf("step %d: getOrPut returned %d, want existing %d", step, got, want)
			}
			if !existed {
				if got != v {
					t.Fatalf("step %d: getOrPut returned %d, want inserted %d", step, got, v)
				}
				ref[k] = v
			}
		}
		if tbl.count() != len(ref) {
			t.Fatalf("step %d: count = %d, map has %d", step, tbl.count(), len(ref))
		}
	}
	for _, k := range keys {
		got, ok := tbl.get(k)
		want, wok := ref[k]
		if ok != wok || (ok && got != want) {
			t.Fatalf("final: get(%v) = (%d, %v), want (%d, %v)", k, got, ok, want, wok)
		}
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
