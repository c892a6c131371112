package state

// chunkBits sizes the arena's chunks: 1<<chunkBits assignments (256 KB)
// each, far more than the largest state a packed machine can hold (at
// most 7 registers, so n ≤ 6: 720 permutations, 4,683 weak orders).
const chunkBits = 16

// Arena is an append-only store of packed assignments in fixed-size
// chunks. The search engine stores every open-list state in one arena
// and addresses it by a compact (offset, length) pair instead of holding
// a heap-allocated clone per entry: pushes become a bulk copy into the
// current chunk, pops a constant-time reslice, and the garbage collector
// sees one pointer per chunk rather than hundreds of thousands of small
// State slices. A full chunk is never grown, so a saved state is copied
// exactly once, by Save, and never moved afterwards.
//
// The zero value is an empty arena ready for use.
type Arena struct {
	chunks [][]Asg
}

// Save appends a copy of s and returns its (offset, length) address. A
// state that does not fit the current chunk's tail starts a new chunk;
// the tail stays unused. s must hold at most 1<<chunkBits assignments.
func (a *Arena) Save(s State) (off, n int32) {
	last := len(a.chunks) - 1
	if last < 0 || len(a.chunks[last])+len(s) > 1<<chunkBits {
		a.chunks = append(a.chunks, make([]Asg, 0, 1<<chunkBits))
		last++
	}
	c := a.chunks[last]
	off = int32(last<<chunkBits | len(c))
	a.chunks[last] = append(c, s...)
	return off, int32(len(s))
}

// At returns the state stored at (off, n). The slice is capped at its own
// length, so appending to it cannot clobber neighbouring entries; it
// aliases the arena and stays valid, unchanged, across later Saves.
func (a *Arena) At(off, n int32) State {
	c, i := a.chunks[off>>chunkBits], off&(1<<chunkBits-1)
	return State(c[i : i+n : i+n])
}
