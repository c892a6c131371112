package state

// Arena is an append-only slab of packed assignments. The search engine
// stores every open-list state in one arena and addresses it by a compact
// (offset, length) pair instead of holding a heap-allocated clone per
// entry: pushes become a bulk copy into one growing backing array, pops a
// constant-time reslice, and the garbage collector sees a single pointer
// per arena rather than hundreds of thousands of small State slices.
//
// The zero value is an empty arena ready for use.
type Arena struct {
	slab []Asg
}

// Len returns the number of assignments currently stored.
func (a *Arena) Len() int32 { return int32(len(a.slab)) }

// Save appends a copy of s and returns its (offset, length) address.
func (a *Arena) Save(s State) (off, n int32) {
	off = int32(len(a.slab))
	a.slab = append(a.slab, s...)
	return off, int32(len(s))
}

// At returns the state stored at (off, n). The slice is capped at its own
// length, so appending to it cannot clobber neighbouring entries; it
// aliases the arena and stays valid across later Saves (a growth
// reallocation copies the slab, and slices taken before it keep the old
// backing array alive until they are dropped).
func (a *Arena) At(off, n int32) State {
	return State(a.slab[off : off+n : off+n])
}
