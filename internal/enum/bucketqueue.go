package enum

import "math/bits"

// openEntry is one open-list element: the node id plus the arena address
// of its canonical state. The f-value is implicit in the bucket index and
// g rides along for the staleness check on pop, bound (the length bound
// at the push) for the pop-time pair check. cost is the accumulated §5.3
// instruction weight of the path, used only in cost-ordered mode.
type openEntry struct {
	id    int32
	off   int32 // state = arena.At(off, n)
	n     int32
	cost  int32
	g     uint8
	bound uint8
}

// depthSlots is the number of g sub-buckets per f-value: depths run
// 0..MaxDepth inclusive.
const depthSlots = MaxDepth + 1

// bucketQueue is the open list of the search: an array of
// buckets indexed by the composite key
//
//	f·(MaxDepth+1) + (MaxDepth − g)
//
// so that draining buckets in index order pops f ascending with the
// deeper-first tie-break of the old heap ordering (f asc, then g desc).
// Within each equal-(f, g) bucket the order is LIFO by default — O(1)
// array push/pop with no comparisons and no interface boxing, unlike
// container/heap.
//
// With costOrder set (objective runs), each bucket is instead a binary
// min-heap on the entries' accumulated uarch instruction weight (ties:
// most recently created node first, id descending), so the engine
// explores cheap programs before expensive ones within the same (f, g)
// class — the "minimum cost among minimum length" secondary priority.
// Push/pop then cost O(log bucket) instead of O(1).
//
// An occupancy bitset tracks non-empty buckets; pop scans it from cur,
// the smallest possibly-occupied key. The queue is "monotone" in the
// Dijkstra sense but tolerates non-monotone pushes (A* with a
// non-consistent heuristic, reopened nodes): a push below cur simply
// rewinds the cursor.
type bucketQueue struct {
	buckets   [][]openEntry
	occ       []uint64
	cur       int
	size      int
	costOrder bool
}

// Len returns the number of queued entries.
func (q *bucketQueue) Len() int { return q.size }

// costLess orders a bucket's heap: accumulated instruction weight
// ascending, then id descending (the newest node first, approximating
// the default LIFO order among equal-cost entries).
func costLess(a, b openEntry) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.id > b.id
}

// Push adds e with priority f. Negative f (impossible for the engine's
// nonnegative g and heuristics) is clamped into the first f-band rather
// than indexing out of range.
func (q *bucketQueue) Push(f int32, e openEntry) {
	k := MaxDepth - int(e.g)
	if f > 0 {
		k += int(f) * depthSlots
	}
	if k >= len(q.buckets) {
		q.growTo(k)
	}
	b := q.buckets[k]
	if len(b) == 0 {
		q.occ[k>>6] |= 1 << uint(k&63)
	}
	b = append(b, e)
	if q.costOrder {
		for i := len(b) - 1; i > 0; {
			p := (i - 1) / 2
			if !costLess(b[i], b[p]) {
				break
			}
			b[i], b[p] = b[p], b[i]
			i = p
		}
	}
	q.buckets[k] = b
	if k < q.cur {
		q.cur = k
	}
	q.size++
}

// Pop removes and returns the minimum entry (f ascending, deeper-first
// on equal f, then LIFO — or minimum accumulated cost in cost-ordered
// mode — within equal (f, g)) and its f-value.
func (q *bucketQueue) Pop() (openEntry, int32, bool) {
	if q.size == 0 {
		return openEntry{}, 0, false
	}
	// Find the first occupied bucket at or after cur. The cursor
	// invariant (no occupied bucket below cur) makes the masked first
	// word plus a word-at-a-time scan exact.
	k := q.cur
	w := k >> 6
	if word := q.occ[w] >> uint(k&63); word != 0 {
		k += bits.TrailingZeros64(word)
	} else {
		for w++; q.occ[w] == 0; w++ {
		}
		k = w<<6 + bits.TrailingZeros64(q.occ[w])
	}
	b := q.buckets[k]
	var e openEntry
	if q.costOrder && len(b) > 1 {
		e = b[0]
		last := len(b) - 1
		b[0] = b[last]
		b = b[:last]
		for i := 0; ; {
			l := 2*i + 1
			if l >= len(b) {
				break
			}
			m := l
			if r := l + 1; r < len(b) && costLess(b[r], b[l]) {
				m = r
			}
			if !costLess(b[m], b[i]) {
				break
			}
			b[i], b[m] = b[m], b[i]
			i = m
		}
		q.buckets[k] = b
	} else {
		e = b[len(b)-1]
		b = b[:len(b)-1]
		q.buckets[k] = b
	}
	if len(b) == 0 {
		q.occ[k>>6] &^= 1 << uint(k&63)
	}
	q.cur = k
	q.size--
	return e, int32(k / depthSlots), true
}

// growTo extends the bucket array to cover key k. Buckets are grown
// geometrically so repeated small f increases don't re-allocate per push.
func (q *bucketQueue) growTo(k int) {
	n := len(q.buckets)
	if n == 0 {
		n = 2 * depthSlots
	}
	for n <= k {
		n *= 2
	}
	buckets := make([][]openEntry, n)
	copy(buckets, q.buckets)
	q.buckets = buckets
	occ := make([]uint64, (n+63)/64+1) // +1: pop's word scan may read one past the last key's word
	copy(occ, q.occ)
	q.occ = occ
}
