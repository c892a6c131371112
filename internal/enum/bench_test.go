package enum

import (
	"container/heap"
	"math/rand"
	"testing"

	"sortsynth/internal/isa"
	"sortsynth/internal/state"
)

// The open-list and dedup benchmarks replay one pre-generated workload
// per iteration, so the bucket-queue and container/heap rows (and the
// flat-table and Go-map rows) are directly comparable with -benchmem.

type queueOp struct {
	pop bool
	f   int32
	g   uint8
}

func queueWorkload(n int) []queueOp {
	rng := rand.New(rand.NewSource(11))
	ops := make([]queueOp, 0, n)
	depth := 0
	for len(ops) < n {
		if depth > 0 && rng.Intn(3) == 0 {
			ops = append(ops, queueOp{pop: true})
			depth--
			continue
		}
		g := uint8(rng.Intn(30))
		ops = append(ops, queueOp{f: int32(g) + rng.Int31n(10), g: g})
		depth++
	}
	return ops
}

func BenchmarkOpenListBucketQueue(b *testing.B) {
	ops := queueWorkload(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var q bucketQueue
		for _, op := range ops {
			if op.pop {
				q.Pop()
			} else {
				q.Push(op.f, openEntry{g: op.g})
			}
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}

func BenchmarkOpenListContainerHeap(b *testing.B) {
	ops := queueWorkload(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var h refHeap
		for _, op := range ops {
			if op.pop {
				heap.Pop(&h)
			} else {
				heap.Push(&h, refItem{f: op.f, g: op.g})
			}
		}
		for h.Len() > 0 {
			heap.Pop(&h)
		}
	}
}

func dedupKeys(n int) []state.Key128 {
	rng := rand.New(rand.NewSource(12))
	distinct := make([]state.Key128, n/4)
	for i := range distinct {
		distinct[i] = state.Key128{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	keys := make([]state.Key128, n)
	for i := range keys {
		keys[i] = distinct[rng.Intn(len(distinct))] // ~25% inserts, 75% hits
	}
	return keys
}

func BenchmarkDedupFlatTable(b *testing.B) {
	keys := dedupKeys(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := newFlatTable(1 << 8)
		for j, k := range keys {
			t.getOrPut(k, int32(j))
		}
	}
}

func BenchmarkDedupGoMap(b *testing.B) {
	keys := dedupKeys(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := make(map[state.Key128]int32, 1<<8)
		for j, k := range keys {
			if _, ok := m[k]; !ok {
				m[k] = int32(j)
			}
		}
	}
}

// BenchmarkSearchBestN3 runs the full sequential best-config search so
// allocs/op of the engine end to end is tracked by CI-visible output.
// This is the pin on the per-expansion hoists (parent indices, parent
// permutation count, the reused successor buffer).
func BenchmarkSearchBestN3(b *testing.B) {
	set := isa.NewCmov(3, 1)
	opt := ConfigBest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(set, opt)
		if res.Length != 11 {
			b.Fatalf("unexpected optimal length %d", res.Length)
		}
	}
}
