package enum

import (
	"context"
	"math"
	"runtime"
	"sync"

	"sortsynth/internal/isa"
	"sortsynth/internal/state"
)

// The parallel engine is the level-synchronous parallel Dijkstra variant
// (ablation row "dijkstra, parallel"): all states of program length g are
// expanded concurrently and their successors are merged into the dedup
// layer, then the next level proceeds. Level order gives Dijkstra
// semantics, so the first level containing a solution is optimal and — in
// AllSolutions mode — complete once merged.
//
// Unlike the original implementation, which merged every level under a
// single goroutine, the merge itself is parallel (DESIGN.md §8): the
// dedup layer is sharded by the high bits of the state's 128-bit hash key
// into mergeShards independent flat tables, workers partition their
// candidates by owning shard during expansion, and one merge task per
// shard deduplicates its partition without locks. Every candidate carries
// its global sequence number — its position in the frontier-order
// candidate stream the old sequential merge consumed — so a final stitch
// pass can append the surviving nodes to the path DAG in exactly that
// order. Node IDs, extra-edge order, solution order, and therefore
// SolutionCount and the enumerated program set are bit-for-bit
// independent of both the worker count and the shard count.

// mergeShards is the number of dedup shards. It is a fixed constant
// rather than the worker count so shard ownership and table layouts never
// vary with Options.Workers; determinism does not require that (dedup
// outcomes are per-key and IDs are assigned in sequence order), but it
// keeps per-worker-count runs directly comparable.
const (
	mergeShardBits = 5
	mergeShards    = 1 << mergeShardBits
)

// parCand is one successor produced by an expansion worker, addressed
// into the worker's append-only state arena.
type parCand struct {
	key     state.Key128
	parent  int32
	local   int32 // per-worker candidate ordinal; global seq = base[w] + local
	off     int32 // state = arena.At(off, n)
	n       int32
	pc      int32
	instrID uint16
	sorted  bool
}

// pendingNode is a shard-local node created during the merge of one
// level, awaiting its global ID from the stitch pass. Within a shard the
// list is ordered by seq (workers are drained in index order and local
// ordinals increase), which the stitch's k-way merge relies on.
type pendingNode struct {
	seq  int64
	node node // primary edge, depth, sorted flag; extra filled by dedup hits
	key  state.Key128
	st   state.State // arena-backed; nil for sorted states
	pc   int32
}

// mergeShard is one slice of the dedup layer: a persistent key→ID flat
// table plus the per-level pending list. Provisional IDs of nodes created
// this level are stored as -(pendIndex+1) until the stitch assigns real
// ones.
type mergeShard struct {
	dedup   *flatTable
	pend    []pendingNode
	deduped int64
}

// frontierEntry is one expandable node of the current level.
type frontierEntry struct {
	id int32
	st state.State
}

func runParallel(ctx context.Context, set *isa.Set, opt Options) *Result {
	s := newSearcher(ctx, set, opt)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	instrs := set.Instrs()

	shards := make([]mergeShard, mergeShards)
	for i := range shards {
		shards[i].dedup = newFlatTable(1 << 8)
	}
	init := s.m.Initial()
	key0 := state.HashKey(init)
	shards[key0.Shard(mergeShardBits)].dedup.set(key0, 0)

	// Per-worker reusable buffers. Arenas double-buffer across levels:
	// the slabs written at level g back the frontier states read at
	// level g+1 and are recycled at level g+2.
	buckets := make([][mergeShards][]parCand, workers)
	arenas := make([]state.Arena, workers)
	arenasOld := make([]state.Arena, workers)
	projSets := make([]state.ProjSet, workers)
	counts := make([]int64, workers)
	base := make([]int64, workers+1)
	heads := make([]int, mergeShards)

	frontier := []frontierEntry{{id: 0, st: init}}
	var next []frontierEntry

	for g := 0; len(frontier) > 0 && g < s.bound; g++ {
		if s.stopped() {
			return s.finish()
		}
		if s.opt.StateBudget > 0 && s.res.Expanded >= s.opt.StateBudget {
			return s.finish()
		}
		for w := range counts {
			counts[w] = 0
			for si := range buckets[w] {
				buckets[w][si] = buckets[w][si][:0]
			}
		}

		// Phase 1: expand the level in parallel. Workers apply the
		// viability and cut filters, hash each survivor, copy its state
		// into the worker's arena, and file it under the owning shard.
		// The cut reference is the completed previous level, which makes
		// the parallel cut deterministic. Everything level-invariant —
		// bound budget, cut limit, option flags — is hoisted out of the
		// per-candidate funnel.
		m, lut := s.m, s.lut
		useDist, viaErase := s.opt.UseDistPrune, s.opt.ViabilityErase
		swar := s.swar
		cutOn := s.opt.Cut != CutNone
		budget := s.bound - (g + 1)
		fused := useDist && budget >= 0
		limit, intLimit := s.cutLimit(g)
		chunk := (len(frontier) + workers - 1) / workers
		var wg sync.WaitGroup
		var mu sync.Mutex
		var generated, pruned, cut int64
		for w := 0; w < workers; w++ {
			lo := w * chunk
			if lo >= len(frontier) {
				break
			}
			hi := min(lo+chunk, len(frontier))
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				bkt := &buckets[w]
				arena := &arenas[w]
				arena.Reset()
				projSet := &projSets[w]
				var buf state.State
				var pidx []uint32
				var local int32
				var lgen, lpr, lcut int64
				for fi, fe := range frontier[lo:hi] {
					if fi&63 == 63 && s.ctx.Err() != nil {
						break // cancelled mid-level; the caller re-checks after the join
					}
					// The parent's distinct projection count: children of
					// projection-preserving instructions inherit it verbatim
					// (state.ProjPreserving), skipping their per-assignment
					// cut recounts.
					fePC := 0
					if cutOn {
						fePC = m.PermCount(fe.st)
					}
					// The candidate set — action guide, pre-apply cut,
					// budget mask — shared with the sequential engine. A
					// worker always expands a frontier entry completely,
					// so its dropped candidates are booked up front.
					c := s.candidates(fe.st, &pidx, budget, intLimit != math.MaxInt && fePC > intLimit)
					c.book(allIDs, &lgen, &lcut, &lpr)
					for {
						id, more := c.next()
						if !more {
							break
						}
						in := instrs[id]
						projPres := s.projPres.Has(id)
						// The raw successor keeps the parent's order; the
						// prune predicates and the cut's exceeds-test are
						// order-insensitive, so the canonicalizing sort is
						// deferred until a candidate survives all of them.
						// With dist-pruning on, the prune is fused into the
						// apply itself and aborts at the first over-budget
						// assignment.
						var sorted bool
						if fused {
							var ok bool
							if swar {
								buf, sorted, ok = m.ApplyDistSWAR(buf, fe.st, pidx, in, lut, budget)
							} else {
								buf, ok = m.ApplyDist(buf, fe.st, in, lut, budget)
								if ok {
									sorted = m.AllSorted(buf)
								}
							}
							lgen++
							if !ok {
								lpr++
								continue
							}
						} else {
							if swar {
								buf = m.ApplySWAR(buf, fe.st, in)
								lgen++
								sorted = m.AllSortedSWAR(buf)
							} else {
								buf = m.ApplyRaw(buf, fe.st, in)
								lgen++
								sorted = m.AllSorted(buf)
							}
							if !sorted {
								// Dead end at the bound; the fused branch
								// prunes these through the dist check.
								if budget <= 0 {
									lpr++
									continue
								}
								if viaErase {
									viable := false
									if swar {
										viable = m.AllViableSWAR(buf)
									} else {
										viable = m.AllViable(buf)
									}
									if !viable {
										lpr++
										continue
									}
								}
							}
						}
						var pc int32
						if !sorted && intLimit != math.MaxInt && !projPres &&
							m.PermCountExceedsSet(buf, intLimit, projSet) {
							lcut++
							continue
						}
						state.Canonicalize(&buf)
						if !sorted && cutOn {
							if projPres {
								pc = int32(fePC)
							} else {
								pc = int32(m.PermCount(buf))
							}
							if float64(pc) > limit {
								lcut++
								continue
							}
						}
						key := state.HashKey(buf)
						off, n := arena.Save(buf)
						si := key.Shard(mergeShardBits)
						bkt[si] = append(bkt[si], parCand{
							key:     key,
							parent:  fe.id,
							local:   local,
							off:     off,
							n:       n,
							pc:      pc,
							instrID: uint16(id),
							sorted:  sorted,
						})
						local++
					}
				}
				counts[w] = int64(local)
				mu.Lock()
				generated += lgen
				pruned += lpr
				cut += lcut
				mu.Unlock()
			}(w, lo, hi)
		}
		wg.Wait()
		if s.stopped() {
			// Discard the partially expanded level: merging it would break
			// the level-completeness invariant the Dijkstra semantics rely
			// on, and the result is already marked cancelled/timed out.
			return s.finish()
		}
		s.res.Expanded += int64(len(frontier))
		s.res.Generated += generated
		s.res.Pruned += pruned
		s.res.CutCount += cut

		for w := 0; w < workers; w++ {
			base[w+1] = base[w] + counts[w]
		}
		cg := g + 1

		// Phase 2: merge each shard independently. Draining the workers'
		// buckets in worker order visits a shard's candidates in global
		// sequence order, so dedup decisions and extra-edge order are
		// exactly those of a sequential merge of the full stream —
		// deduplication only ever interacts among equal keys, and equal
		// keys share a shard.
		mergeWorkers := min(workers, mergeShards)
		var mwg sync.WaitGroup
		for mw := 0; mw < mergeWorkers; mw++ {
			mwg.Add(1)
			go func(mw int) {
				defer mwg.Done()
				for si := mw; si < mergeShards; si += mergeWorkers {
					sh := &shards[si]
					sh.pend = sh.pend[:0]
					for w := 0; w < workers; w++ {
						for ci := range buckets[w][si] {
							c := &buckets[w][si][ci]
							provisional := -int32(len(sh.pend)) - 1
							if id, inserted := sh.dedup.getOrPut(c.key, provisional); !inserted {
								sh.deduped++
								// id < 0 marks a node created this level;
								// nonnegative IDs are from earlier levels
								// (shallower depth — no optimal edge).
								if id < 0 && s.opt.AllSolutions {
									p := &sh.pend[-id-1]
									p.node.extra = append(p.node.extra, edge{parent: c.parent, instr: c.instrID})
								}
								continue
							}
							var st state.State
							if !c.sorted {
								st = arenas[w].At(c.off, c.n)
							}
							sh.pend = append(sh.pend, pendingNode{
								seq:  base[w] + int64(c.local),
								node: node{edge: edge{parent: c.parent, instr: c.instrID}, g: uint8(cg), sorted: c.sorted},
								key:  c.key,
								st:   st,
								pc:   c.pc,
							})
						}
					}
				}
			}(mw)
		}
		mwg.Wait()

		// Phase 3: stitch the shards' surviving nodes into the global DAG
		// in sequence order (k-way merge over the seq-sorted pending
		// lists). This reproduces the exact node IDs, solution order, and
		// cut-reference updates of a fully sequential merge.
		next = next[:0]
		for si := range heads {
			heads[si] = 0
		}
		for {
			bestShard := -1
			bestSeq := int64(math.MaxInt64)
			for si := range shards {
				if heads[si] < len(shards[si].pend) {
					if q := shards[si].pend[heads[si]].seq; q < bestSeq {
						bestSeq, bestShard = q, si
					}
				}
			}
			if bestShard < 0 {
				break
			}
			sh := &shards[bestShard]
			p := &sh.pend[heads[bestShard]]
			heads[bestShard]++
			id := int32(len(s.nodes))
			s.nodes = append(s.nodes, p.node)
			sh.dedup.set(p.key, id)
			if p.node.sorted {
				s.recordSolution(id, cg)
				continue
			}
			if s.opt.Cut != CutNone && cg < len(s.bestPerm) && p.pc < s.bestPerm[cg] {
				s.bestPerm[cg] = p.pc
			}
			next = append(next, frontierEntry{id: id, st: p.st})
		}
		for si := range shards {
			s.res.Deduped += shards[si].deduped
			shards[si].deduped = 0
		}

		if tr := s.opt.Trace; tr != nil {
			tr.sample(s.start, s.res, len(next), s.solutionsSoFar())
		}
		if s.optLen >= 0 {
			// Level order: the first level with a solution is optimal and,
			// after this merge, complete.
			break
		}
		frontier, next = next, frontier
		arenas, arenasOld = arenasOld, arenas
	}
	if s.optLen < 0 {
		s.res.Exhausted = true
	}
	return s.finish()
}
