package enum

import (
	"fmt"
	"math/rand"

	"sortsynth/internal/state"
)

// Conformance hooks: randomized equivalence checks of the engine's two
// bespoke data structures against executable reference models. They
// return the first divergence instead of failing a test, and live in the
// library, so the package tests, internal/conformance and
// cmd/experiments -table=conformance all replay the one copy of each
// model, each with its own seed and budget.

// refEntry is one open-list element in the bucket-queue reference model;
// seq doubles as the entry id for cross-implementation identification.
type refEntry struct {
	f   int32
	g   uint8
	seq int32
}

// popRef removes and returns the model's next entry: minimal f, then
// maximal g, then latest pushed (LIFO) — the bucket queue's contract.
func popRef(m *[]refEntry) refEntry {
	best := 0
	for i, it := range (*m)[1:] {
		b := (*m)[best]
		switch {
		case it.f != b.f:
			if it.f < b.f {
				best = i + 1
			}
		case it.g != b.g:
			if it.g > b.g {
				best = i + 1
			}
		case it.seq > b.seq:
			best = i + 1
		}
	}
	it := (*m)[best]
	*m = append((*m)[:best], (*m)[best+1:]...)
	return it
}

// CheckBucketQueueConformance replays randomized interleaved push/pop
// workloads — including non-monotone pushes that force cursor rewinds —
// through the bucket queue and the O(n)-per-pop reference model, and
// returns a description of the first divergence, or nil.
func CheckBucketQueueConformance(seed int64, trials, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		var q bucketQueue
		var model []refEntry
		var seq int32
		maxF := int32(1 + rng.Intn(60))
		for step := 0; step < steps; step++ {
			if q.Len() != len(model) {
				return fmt.Errorf("bucketqueue trial %d step %d: Len() = %d, model has %d",
					trial, step, q.Len(), len(model))
			}
			if q.Len() > 0 && rng.Intn(3) == 0 {
				e, f, ok := q.Pop()
				if !ok {
					return fmt.Errorf("bucketqueue trial %d step %d: Pop failed with %d queued",
						trial, step, q.Len())
				}
				want := popRef(&model)
				if e.id != want.seq || f != want.f || e.g != want.g {
					return fmt.Errorf("bucketqueue trial %d step %d: popped (f=%d g=%d seq=%d), model says (f=%d g=%d seq=%d)",
						trial, step, f, e.g, e.id, want.f, want.g, want.seq)
				}
				continue
			}
			g := uint8(rng.Intn(MaxDepth + 1))
			f := int32(g) + rng.Int31n(maxF) // f ≥ g as in the engine
			q.Push(f, openEntry{id: seq, g: g})
			model = append(model, refEntry{f: f, g: g, seq: seq})
			seq++
		}
		for len(model) > 0 {
			e, f, ok := q.Pop()
			want := popRef(&model)
			if !ok || e.id != want.seq || f != want.f || e.g != want.g {
				return fmt.Errorf("bucketqueue trial %d drain: popped (f=%d g=%d seq=%d ok=%v), model says (f=%d g=%d seq=%d)",
					trial, f, e.g, e.id, ok, want.f, want.g, want.seq)
			}
		}
		if _, _, ok := q.Pop(); ok {
			return fmt.Errorf("bucketqueue trial %d: Pop on empty queue reported ok", trial)
		}
	}
	return nil
}

// CheckFlatTableConformance replays a randomized get/getOrPut
// workload — over a deliberately small, collision-rich key universe,
// starting from a capacity-1 table so several growth rehashes occur —
// through the flat table and a reference Go map, and returns a
// description of the first divergence, or nil.
func CheckFlatTableConformance(seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	tbl := newFlatTable(1)
	ref := map[state.Key128]int32{}
	keys := make([]state.Key128, 300)
	for i := range keys {
		keys[i] = state.Key128{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	for step := 0; step < steps; step++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(2) {
		case 0:
			got, ok := tbl.get(k)
			want, wok := ref[k]
			if ok != wok || (ok && got != want) {
				return fmt.Errorf("flattable step %d: get = (%d, %v), map says (%d, %v)", step, got, ok, want, wok)
			}
		case 1:
			v := int32(rng.Intn(1 << 20))
			got, inserted := tbl.getOrPut(k, v)
			want, existed := ref[k]
			if inserted == existed {
				return fmt.Errorf("flattable step %d: getOrPut inserted=%v, map existed=%v", step, inserted, existed)
			}
			if existed && got != want {
				return fmt.Errorf("flattable step %d: getOrPut = %d, want existing %d", step, got, want)
			}
			if !existed {
				if got != v {
					return fmt.Errorf("flattable step %d: getOrPut = %d, want inserted %d", step, got, v)
				}
				ref[k] = v
			}
		}
		if tbl.count() != len(ref) {
			return fmt.Errorf("flattable step %d: count = %d, map has %d", step, tbl.count(), len(ref))
		}
	}
	for _, k := range keys {
		got, ok := tbl.get(k)
		want, wok := ref[k]
		if ok != wok || (ok && got != want) {
			return fmt.Errorf("flattable final: get(%v) = (%d, %v), map says (%d, %v)", k, got, ok, want, wok)
		}
	}
	return nil
}
