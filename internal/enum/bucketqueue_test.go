package enum

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refItem is an open-list element under the ordering contract the bucket
// queue must preserve.
type refItem struct {
	f int32
	g uint8
}

// refHeap is the retired container/heap open list, kept here as the
// executable specification of the ordering the bucket queue replaces:
// f ascending, deeper-first (g descending) on ties. Order within equal
// (f, g) was unspecified by Less; the bucket queue pins it to LIFO.
type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].f != h[j].f {
		return h[i].f < h[j].f
	}
	return h[i].g > h[j].g // deeper first on ties
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TestBucketQueueMatchesReferenceModel drives random interleaved
// push/pop workloads — including non-monotone pushes below the last
// popped priority, which force cursor rewinds — and asserts the bucket
// queue pops in exactly the order the library's reference model
// defines: f ascending, deeper-first on ties, LIFO within equal (f, g).
func TestBucketQueueMatchesReferenceModel(t *testing.T) {
	if err := CheckBucketQueueConformance(1, 50, 400); err != nil {
		t.Fatal(err)
	}
}

// TestBucketQueueAgreesWithRetiredHeap replays the same workload through
// the bucket queue and the retired container/heap open list and asserts
// the (f, g) pop streams are identical — the bucket queue is a refinement
// of the old Less order, never a departure from it.
func TestBucketQueueAgreesWithRetiredHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		var q bucketQueue
		var h refHeap
		var seq int32
		for step := 0; step < 500; step++ {
			if h.Len() > 0 && rng.Intn(3) == 0 {
				e, f, _ := q.Pop()
				want := heap.Pop(&h).(refItem)
				if f != want.f || e.g != want.g {
					t.Fatalf("trial %d step %d: bucket popped (f=%d g=%d), heap popped (f=%d g=%d)",
						trial, step, f, e.g, want.f, want.g)
				}
				continue
			}
			g := uint8(rng.Intn(MaxDepth + 1))
			f := int32(g) + rng.Int31n(40)
			q.Push(f, openEntry{id: seq, g: g})
			heap.Push(&h, refItem{f: f, g: g})
			seq++
		}
	}
}

// TestBucketQueueGrowth pushes a priority far beyond the initial bucket
// allocation and then rewinds below it.
func TestBucketQueueGrowth(t *testing.T) {
	var q bucketQueue
	q.Push(5000, openEntry{id: 1, g: 10})
	q.Push(3, openEntry{id: 2, g: 3})
	q.Push(5000, openEntry{id: 3, g: 200})
	if e, f, _ := q.Pop(); f != 3 || e.id != 2 {
		t.Fatalf("popped (f=%d id=%d), want the low-priority rewind first", f, e.id)
	}
	if e, f, _ := q.Pop(); f != 5000 || e.id != 3 {
		t.Fatalf("popped (f=%d id=%d g=%d), want deeper entry of f=5000", f, e.id, e.g)
	}
	if e, _, _ := q.Pop(); e.id != 1 {
		t.Fatalf("popped id=%d, want 1", e.id)
	}
	if q.Len() != 0 {
		t.Fatalf("Len() = %d after draining", q.Len())
	}
}
