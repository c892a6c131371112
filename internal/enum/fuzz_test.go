package enum

import (
	"testing"

	"sortsynth/internal/state"
)

// FuzzFlatTable drives a byte-string-scripted op sequence through the
// open-addressing table and a reference Go map. The key universe is
// small and built to share home slots, so the fuzzer exercises probe
// chains and growth from a capacity-1 table.
func FuzzFlatTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 1, 1, 3, 2, 1, 4, 0, 1, 5})
	f.Add([]byte("put-get-grow put-get-grow"))
	f.Fuzz(func(t *testing.T, script []byte) {
		tbl := newFlatTable(1)
		ref := map[state.Key128]int32{}
		var keys [24]state.Key128
		for i := range keys {
			// Identical low bits across groups of 6 keys force probe
			// collisions at every capacity the table passes through.
			keys[i] = state.Key128{Hi: uint64(i) * 0x9e3779b97f4a7c15, Lo: uint64(i%6) | uint64(i)<<40}
		}
		steps := len(script) / 3
		if steps > 4096 {
			steps = 4096
		}
		for s := 0; s < steps; s++ {
			op := script[s*3] % 2
			k := keys[int(script[s*3+1])%len(keys)]
			v := int32(script[s*3+2])
			switch op {
			case 0:
				got, ok := tbl.get(k)
				want, wok := ref[k]
				if ok != wok || (ok && got != want) {
					t.Fatalf("step %d: get = (%d, %v), map says (%d, %v)", s, got, ok, want, wok)
				}
			case 1:
				got, inserted := tbl.getOrPut(k, v)
				want, existed := ref[k]
				if inserted == existed {
					t.Fatalf("step %d: getOrPut inserted=%v, map existed=%v", s, inserted, existed)
				}
				if existed && got != want {
					t.Fatalf("step %d: getOrPut = %d, want existing %d", s, got, want)
				}
				if !existed {
					if got != v {
						t.Fatalf("step %d: getOrPut = %d, want inserted %d", s, got, v)
					}
					ref[k] = v
				}
			}
			if tbl.count() != len(ref) {
				t.Fatalf("step %d: count = %d, map has %d", s, tbl.count(), len(ref))
			}
		}
		for _, k := range keys {
			got, ok := tbl.get(k)
			want, wok := ref[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("final get(%v) = (%d, %v), map says (%d, %v)", k, got, ok, want, wok)
			}
		}
	})
}
