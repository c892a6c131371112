package state

import (
	"math/rand"
	"slices"
	"testing"
)

func TestArenaSaveAt(t *testing.T) {
	var a Arena
	rng := rand.New(rand.NewSource(4))
	var want []State
	var addrs [][2]int32
	for i := 0; i < 200; i++ {
		s := make(State, 1+rng.Intn(30))
		for j := range s {
			s[j] = Asg(rng.Uint32())
		}
		off, n := a.Save(s)
		if n != int32(len(s)) {
			t.Fatalf("Save returned n=%d for a %d-assignment state", n, len(s))
		}
		want = append(want, s)
		addrs = append(addrs, [2]int32{off, n})
	}
	// Every saved state must read back intact after all later Saves.
	for i, ad := range addrs {
		got := a.At(ad[0], ad[1])
		if len(got) != len(want[i]) {
			t.Fatalf("state %d: length %d, want %d", i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("state %d differs at %d: %x != %x", i, j, got[j], want[i][j])
			}
		}
	}
}

// TestArenaChunkBoundary saves states until one no longer fits the first
// chunk's tail: it must start a new chunk and read back intact, and a
// slice taken by At before the crossing must still alias the stored
// state, unchanged.
func TestArenaChunkBoundary(t *testing.T) {
	var a Arena
	st := func(seed int) State {
		s := make(State, 7)
		for j := range s {
			s[j] = Asg(seed*31 + j)
		}
		return s
	}
	first := a.At(a.Save(st(0)))
	var addrs [][2]int32
	for i := 1; len(addrs) == 0 || addrs[len(addrs)-1][0]>>chunkBits == 0; i++ {
		off, n := a.Save(st(i))
		addrs = append(addrs, [2]int32{off, n})
	}
	if last := addrs[len(addrs)-1]; last[0] != 1<<chunkBits {
		t.Fatalf("state crossing the chunk boundary saved at offset %#x, want %#x", last[0], 1<<chunkBits)
	}
	if prev := addrs[len(addrs)-2]; prev[0]+7 > 1<<chunkBits || prev[0]+14 <= 1<<chunkBits {
		t.Fatalf("last state of the first chunk at offset %#x leaves room for another", prev[0])
	}
	for i, ad := range addrs {
		want := st(i + 1)
		if got := a.At(ad[0], ad[1]); !slices.Equal(got, want) {
			t.Fatalf("state %d at %#x reads back %v, want %v", i+1, ad[0], got, want)
		}
	}
	if !slices.Equal(first, st(0)) {
		t.Fatalf("earlier At slice changed to %v", first)
	}
	if &first[0] != &a.At(0, 7)[0] {
		t.Fatal("earlier At slice no longer aliases the arena")
	}
}

// TestArenaAtIsCapped pins the full-slice-expression contract: appending
// to a returned state must not clobber the next entry in the slab.
func TestArenaAtIsCapped(t *testing.T) {
	var a Arena
	a.Save(State{1, 2, 3})
	a.Save(State{9})
	got := a.At(0, 3)
	_ = append(got, 7) // must copy, not write slab[3]
	if next := a.At(3, 1); next[0] != 9 {
		t.Fatalf("append through At clobbered the neighbouring entry: %d", next[0])
	}
}
