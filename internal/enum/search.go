package enum

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"time"

	"sortsynth/internal/isa"
	"sortsynth/internal/state"
	"sortsynth/internal/tables"
	"sortsynth/internal/uarch"
)

// Result reports the outcome of a synthesis run.
type Result struct {
	// Program is the first optimal program found (nil if none).
	Program isa.Program
	// Programs holds the enumerated optimal programs in AllSolutions mode
	// (capped by MaxSolutions).
	Programs []isa.Program
	// Length is the length of the found solutions, or -1 if none.
	Length int
	// SolutionCount is the exact number of distinct optimal programs
	// (DAG path count) in AllSolutions mode; 1 if a single program was
	// synthesized; 0 if none. Objective runs enumerate the DAG
	// internally, so they always report the exact count.
	SolutionCount int64

	// Objective echoes the ranking objective the run was executed
	// under. For any objective other than shortest, Program is the
	// uarch-ranked winner of the optimal-length solution set and Cost is
	// its primary metric (estimated cycles per invocation for fastest;
	// the throughput/critical-path blend for balanced).
	Objective Objective
	Cost      float64
	// RerankCandidates is the number of optimal programs the ranking
	// stage scored; RerankTruncated reports that the solution set
	// exceeded the engine's ranking cap and the winner was chosen from
	// a deterministic prefix.
	RerankCandidates int
	RerankTruncated  bool

	// Search statistics. Every generated successor is counted once:
	// deduplicated, cut, pruned, or kept (queued or a solution).
	Expanded  int64 // states popped and expanded
	Generated int64 // successor states produced
	Deduped   int64 // successors merged into an existing state
	CutCount  int64 // successors discarded by the §3.5 cut
	Pruned    int64 // successors discarded by viability/budget checks
	// PairPruned counts the successors, a subset of Pruned, that the
	// pair bound dropped (exact searches only, DESIGN.md §10): g plus
	// the largest pair distance of the state exceeds the bound. A
	// queued state the pair bound drops when popped, because a solution
	// lowered the bound after it was queued, was already counted as
	// kept; like a stale entry it is skipped without being counted
	// again, here or in Expanded.
	PairPruned int64

	// Exhausted reports that the open list ran empty (no timeout or
	// budget stop). Proof additionally asserts that only
	// optimality-preserving pruning was active, so "no solution found"
	// certifies that none exists within MaxLen.
	Exhausted bool
	Proof     bool
	TimedOut  bool
	// Cancelled reports that the search stopped because the context
	// passed to RunContext was cancelled (client disconnect, shutdown).
	// A context deadline is reported as TimedOut instead.
	Cancelled bool

	// Err is set when the options were rejected before any search ran
	// (currently only *DepthLimitError); the rest of the result is zero
	// with Length = -1.
	Err error

	Elapsed time.Duration
}

// MaxDepth is the deepest program length the engine can represent:
// node depths are stored in a uint8, the cut reference table holds one
// slot per depth, and the bucket queue carves one g sub-bucket per depth
// out of each f-band. Options.MaxLen beyond it is rejected with a
// *DepthLimitError instead of silently truncating the search.
const MaxDepth = 250

// DepthLimitError reports an Options.MaxLen beyond MaxDepth.
type DepthLimitError struct{ MaxLen int }

func (e *DepthLimitError) Error() string {
	return fmt.Sprintf("enum: MaxLen %d exceeds the engine depth limit %d", e.MaxLen, MaxDepth)
}

// node is one vertex of the search DAG: its primary parent edge (the
// first optimal path found to it), its depth, and whether its state is
// sorted. In AllSolutions mode extra indexes the newest of the node's
// additional optimal parents in searcher.extras, or is -1. It is
// deadNode once the pair bound has dropped the node: further parents at
// its depth are not recorded, and only a strictly shorter path revives
// it. The node holds no pointer, so the garbage collector never scans
// the nodes slice.
type node struct {
	parent int32
	extra  int32
	instr  uint16
	g      uint8
	sorted bool
}

// deadNode marks a node the pair bound dropped (node.extra).
const deadNode = -2

// extraEdge is one additional optimal parent of a node. next links a
// node's extra parents into a circular list: the node indexes the
// newest entry, whose next is the oldest, so an append is O(1) and a
// walk from the oldest visits the parents in insertion order.
type extraEdge struct {
	parent int32
	next   int32
	instr  uint16
}

type searcher struct {
	m     *state.Machine
	set   *isa.Set
	tab   *tables.Table
	pairs *tables.Pairs // the pair bound, in exact searches only
	opt   Options

	nodes    []node
	extras   []extraEdge
	dedup    *flatTable
	open     bucketQueue
	arena    state.Arena
	projSet  state.ProjSet
	bound    int // inclusive length bound
	bestPerm []int32
	sols     []int32
	optLen   int
	res      *Result
	start    time.Time
	ctx      context.Context
	buf      state.State
	done     bool // single-solution mode: stop at the first solution

	// instrMask holds every instruction of the set. Cut bookkeeping
	// hoists: projPres marks the instructions that cannot change any
	// assignment's projection (state.ProjPreserving), whose children
	// inherit the parent's distinct projection count parentPC verbatim —
	// no per-assignment recount needed. writes[d] marks the instructions
	// that write sorted register d (together with projPres, the whole
	// set); the pre-apply cut bounds their children's count by the
	// parent's with nibble d erased (cutMask).
	instrMask tables.Mask
	projPres  tables.Mask
	writes    []tables.Mask
	parentPC  int

	// The caller's enumeration request, before newSearcher forced
	// AllSolutions for an objective run: finish restores the requested
	// Programs surface after the ranking stage.
	userAll     bool
	userMaxSols int
}

// Run synthesizes sorting kernels for the given instruction set according
// to opt. Without AllSolutions it stops at the first solution; with
// AllSolutions it exhausts the (pruned) search space at the optimal
// length and enumerates all optimal programs.
func Run(set *isa.Set, opt Options) *Result {
	return RunContext(context.Background(), set, opt)
}

// RunContext is Run with cancellation: the search loop periodically
// checks ctx alongside its other stop conditions, so client disconnects
// and graceful shutdowns stop the search promptly. A context deadline is
// reported as Result.TimedOut, a plain cancellation as Result.Cancelled.
func RunContext(ctx context.Context, set *isa.Set, opt Options) *Result {
	if opt.MaxLen > MaxDepth {
		return &Result{Length: -1, Err: &DepthLimitError{MaxLen: opt.MaxLen}}
	}
	if opt.Objective > ObjectiveBalanced {
		return &Result{Length: -1, Err: &UnknownObjectiveError{Name: opt.Objective.String()}}
	}
	s := newSearcher(ctx, set, opt)
	s.search()
	return s.finish()
}

// newSearcher builds the search state: machine, tables, bounds, the cut
// reference, and the dedup table, arena and open list seeded with the
// root node.
func newSearcher(ctx context.Context, set *isa.Set, opt Options) *searcher {
	userAll, userMaxSols := opt.AllSolutions, opt.MaxSolutions
	if opt.Objective != ObjectiveShortest {
		// The objective winner is defined over the optimal-length
		// solution set, so objective runs always record the full path
		// DAG and enumerate it, regardless of what program surface the
		// caller asked for. finish() restores the caller's
		// AllSolutions/MaxSolutions view after ranking.
		opt.AllSolutions = true
		opt.MaxSolutions = max(rerankCap, userMaxSols)
	}
	suite := state.SuitePermutations
	if opt.DuplicateSafe {
		suite = state.SuiteWeakOrders
	}
	m := state.NewMachineSuite(set, suite)
	s := &searcher{
		m:   m,
		set: set,
		opt: opt,
		ctx: ctx,
		// "Unbounded" runs are bounded by the representable depth; no
		// sorting kernel comes anywhere near it (n=6 needs 45), so an
		// exhausted depth-250 search is reported as a genuine exhaustion
		// exactly as before. MaxLen > MaxDepth is rejected in RunContext.
		bound:       MaxDepth,
		res:         &Result{Length: -1, Objective: opt.Objective},
		start:       time.Now(),
		userAll:     userAll,
		userMaxSols: userMaxSols,
	}
	if opt.MaxLen > 0 {
		s.bound = opt.MaxLen
	}
	if opt.UseDistPrune || opt.UseActionGuide || opt.Heuristic == HeurDistMax {
		s.tab = tables.For(m)
	}
	// The pair bound only drops states no program within the bound
	// completes, so it runs in exactly the searches whose exhaustion is
	// a proof; ConfigBest's cut and guide keep today's bound, and with
	// them its kernels.
	if opt.UseDistPrune && opt.Cut == CutNone && !opt.UseActionGuide {
		s.pairs = s.tab.Pairs()
	}
	instrs := set.Instrs()
	s.instrMask = tables.MaskOf(len(instrs))
	s.writes = make([]tables.Mask, set.N)
	for id, in := range instrs {
		if m.ProjPreserving(in) {
			s.projPres.Set(id)
		} else {
			s.writes[in.Dst].Set(id)
		}
	}
	// The apply buffer can never need more room than the initial state
	// (successors keep their parent's length and canonicalization only
	// shrinks), so one up-front allocation removes the per-candidate
	// capacity check from the fused generation loop.
	s.buf = make(state.State, 0, len(m.Initial()))
	s.bestPerm = make([]int32, s.bound+2)
	for i := range s.bestPerm {
		s.bestPerm[i] = math.MaxInt32
	}
	s.optLen = -1

	init := m.Initial()
	s.nodes = append(s.nodes, node{parent: -1, extra: -1})
	s.bestPerm[0] = int32(m.PermCount(init))
	s.dedup = newFlatTable(1 << 12)
	s.dedup.getOrPut(state.HashKey(init), 0)
	s.open.costOrder = opt.Objective != ObjectiveShortest
	off, n := s.arena.Save(init)
	s.open.Push(s.priority(0, init, 0, false), openEntry{id: 0, off: off, n: n, g: 0, bound: uint8(s.bound)})
	return s
}

// priority computes the open-list key f for a state at depth g. When the
// cut already computed the state's permutation count, callers pass it via
// (pc, havePC) so the permutation-count heuristic doesn't re-scan the
// state.
func (s *searcher) priority(g int, st state.State, pc int, havePC bool) int32 {
	var h int
	switch s.opt.Heuristic {
	case HeurPermCount:
		if havePC {
			h = pc - 1
		} else {
			h = s.m.PermCount(st) - 1
		}
	case HeurAsgCount:
		h = len(st) - 1
	case HeurDistMax:
		h = s.tab.MaxDist(st)
	}
	return int32(g + h)
}

func (s *searcher) search() {
	instrs := s.set.Instrs()
	var sampleCountdown int64 = 1
	for s.open.Len() > 0 {
		if s.opt.StateBudget > 0 && s.res.Expanded >= s.opt.StateBudget {
			return
		}
		sampleCountdown--
		if sampleCountdown <= 0 {
			if s.stopped() {
				return
			}
			if tr := s.opt.Trace; tr != nil {
				tr.sample(time.Since(s.start), s.res, s.open.Len(), s.solutionsSoFar())
				sampleCountdown = tr.every()
			} else {
				sampleCountdown = 1024
			}
		}

		it, _, _ := s.open.Pop()
		nd := &s.nodes[it.id]
		if nd.g != it.g || nd.sorted {
			continue // stale entry from a reopened node
		}
		g := int(it.g)
		if g >= s.bound {
			continue // no extension can stay within the bound
		}
		st := s.arena.At(it.off, it.n)
		if s.pairs != nil && s.bound < int(it.bound) && s.pairs.Exceeds(st, s.bound-g) {
			nd.extra = deadNode
			continue // the bound dropped below its pair bound since the push
		}
		s.res.Expanded++

		// The cut reference bestPerm[g] can only move when depth-g+1
		// children are recorded, so the limit is invariant across one
		// parent's expansion and hoisted out of the candidate funnel. The
		// candidate set — action guide, pre-apply cut, budget mask — is
		// likewise built once per parent. A solution found mid-expansion
		// lowers the bound; the later siblings must then fit the lower
		// budget, so the kept candidates are masked again at it.
		limit, intLimit := s.cutLimit(g)
		if s.opt.Cut != CutNone {
			s.parentPC = s.m.PermCount(st)
		}
		budget := s.bound - (g + 1)
		c := s.candidates(st, budget, intLimit)
		for {
			id, ok := c.next()
			if !ok {
				break
			}
			if c.claim.Has(id) {
				s.res.Generated++
				s.res.CutCount++
				continue
			}
			s.expandChild(it.id, g, it.cost, st, uint16(id), instrs[id], limit)
			if s.done {
				c.book(id, &s.res.Generated, &s.res.CutCount, &s.res.Pruned)
				return
			}
			if s.opt.UseDistPrune && s.bound-(g+1) < budget {
				budget = s.bound - (g + 1)
				_, fit := s.tab.Candidates(st, budget)
				c.rebudget(fit)
			}
		}
		c.book(allIDs, &s.res.Generated, &s.res.CutCount, &s.res.Pruned)
	}
	s.res.Exhausted = true
}

// cutLimit computes the §3.5 cut threshold for the children of a parent
// at depth g: the exact float limit and its floor for the integer
// exceeds-test. intLimit is MaxInt (and limit +Inf) when no cut applies —
// either the cut is off or no depth-g reference exists yet.
func (s *searcher) cutLimit(g int) (limit float64, intLimit int) {
	limit, intLimit = math.Inf(1), math.MaxInt
	if s.opt.Cut == CutNone {
		return limit, intLimit
	}
	if ref := s.bestPerm[g]; ref != math.MaxInt32 {
		if s.opt.Cut == CutFactor {
			limit = s.opt.CutK * float64(ref)
		} else {
			limit = float64(ref) + s.opt.CutK
		}
		intLimit = int(math.Floor(limit))
	}
	return limit, intLimit
}

// cutMask returns the instructions whose children the §3.5 cut drops
// before any apply: those whose child is known to have more than
// intLimit distinct projections without being sorted (DESIGN.md §15).
// An instruction writes at most one sorted register d, so its child's
// count is at least the parent's count with nibble d erased
// (state.Machine.ErasedCountExceeds); a projection-preserving one erases
// nothing and hands its child parentPC itself. Every erased count is at
// most parentPC, so nothing is claimed unless parentPC exceeds the
// limit. A sorted child has exactly NumTags projections, so a count
// over a limit of at least NumTags rules it out; a parent is never
// sorted, nor therefore a projection-preserving child. Without the
// budget mask the search checks a child's viability before its cut
// (expandChild), so there only the projection-preserving instructions
// are claimed: their booking is fixed (see candidates). A register no
// instruction of live writes is not tested.
func (s *searcher) cutMask(st state.State, intLimit int, live tables.Mask) tables.Mask {
	var cut tables.Mask
	if intLimit == math.MaxInt || s.parentPC <= intLimit {
		return cut
	}
	cut = s.projPres
	if !s.opt.UseDistPrune || intLimit < s.m.NumTags() {
		return cut
	}
	for d, w := range s.writes {
		if w.And(live) != (tables.Mask{}) && s.m.ErasedCountExceeds(st, d, intLimit, &s.projSet) {
			cut.Or(w)
		}
	}
	return cut
}

// stopped reports whether the search context is done and records the
// stop reason on the result (deadline → TimedOut, cancel → Cancelled).
func (s *searcher) stopped() bool {
	err := s.ctx.Err()
	if err == nil {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		s.res.TimedOut = true
	} else {
		s.res.Cancelled = true
	}
	return true
}

// expandChild applies in to the parent state and routes the successor
// through the viability, cut, and deduplication pipeline. parentCost is
// the parent's accumulated instruction weight (maintained only in
// cost-ordered runs; 0 otherwise); limit is the hoisted per-parent cut
// threshold from cutLimit.
func (s *searcher) expandChild(parentID int32, g int, parentCost int32, st state.State, instrID uint16, in isa.Instr, limit float64) {
	// The raw successor keeps the parent's order; the prune predicates
	// are order-insensitive, so the canonicalizing sort is deferred until
	// a candidate survives them. Candidates the pre-apply cut or the
	// budget mask claims never reach this point (see cutMask and
	// candidates); with dist-pruning on, the mask is the whole §3.3
	// budget check, so every child that gets here fits the budget.
	// Without it the cheaper viability checks run instead: a non-sorted
	// state at the bound is a dead end (any completion needs at least
	// one more instruction), and so is one that erased a value. Either
	// way cg ≤ bound ≤ MaxDepth, within g's uint8 storage.
	cg := g + 1
	projPres := s.projPres.Has(int(instrID))
	child := s.m.ApplyRaw(s.buf, st, in)
	s.buf = child // keep the grown buffer
	s.res.Generated++
	sorted := s.m.AllSorted(child)
	if !sorted && !s.opt.UseDistPrune && (s.bound-cg <= 0 || !s.m.AllViable(child)) {
		s.res.Pruned++
		return
	}
	// Projection-preserving instructions hand the child the parent's
	// distinct projection count outright; every other child is counted
	// on its canonical form.
	var pc int
	havePC := false
	state.Canonicalize(&child)
	if !sorted && s.opt.Cut != CutNone {
		if projPres {
			pc = s.parentPC
		} else {
			pc = s.m.PermCount(child)
		}
		havePC = true
		if float64(pc) > limit {
			s.res.CutCount++
			return
		}
		if cg < len(s.bestPerm) && int32(pc) < s.bestPerm[cg] {
			s.bestPerm[cg] = int32(pc)
		}
	}

	var childCost int32
	if s.open.costOrder {
		childCost = parentCost + int32(uarch.InstrScore(in))
	}
	key := state.HashKey(child)
	id := int32(len(s.nodes))
	if ex, inserted := s.dedup.getOrPut(key, id); !inserted {
		exn := &s.nodes[ex]
		switch {
		case cg > int(exn.g):
			s.res.Deduped++
		case cg == int(exn.g):
			s.res.Deduped++
			if s.opt.AllSolutions && exn.extra != deadNode {
				s.addExtra(ex, parentID, instrID)
			}
		default: // strictly better path to a known state (guided orders only)
			exn.g = uint8(cg)
			exn.parent, exn.instr, exn.extra = parentID, instrID, -1
			if exn.sorted {
				s.recordSolution(ex, cg)
			} else {
				s.queue(ex, cg, childCost, child, pc, havePC)
			}
		}
		return
	}

	s.nodes = append(s.nodes, node{
		parent: parentID,
		extra:  -1,
		instr:  instrID,
		g:      uint8(cg),
		sorted: sorted,
	})
	if sorted {
		s.recordSolution(id, cg)
		return
	}
	s.queue(id, cg, childCost, child, pc, havePC)
}

// queue pushes an unsorted node reached at depth g, unless the pair
// bound shows that no completion fits the bound: then the node stays in
// the dedup table, so later paths of depth ≥ g are deduplicated
// against it, but is marked dead and never expanded.
func (s *searcher) queue(id int32, g int, cost int32, st state.State, pc int, havePC bool) {
	if s.pairs != nil && s.pairs.Exceeds(st, s.bound-g) {
		s.nodes[id].extra = deadNode
		s.res.Pruned++
		s.res.PairPruned++
		return
	}
	s.pushOpen(id, g, cost, st, pc, havePC)
}

// addExtra appends an additional optimal parent edge to node v.
func (s *searcher) addExtra(v, parent int32, instr uint16) {
	id := int32(len(s.extras))
	e := extraEdge{parent: parent, next: id, instr: instr}
	nd := &s.nodes[v]
	if nd.extra >= 0 {
		tail := &s.extras[nd.extra]
		e.next, tail.next = tail.next, id
	}
	nd.extra = id
	s.extras = append(s.extras, e)
}

// extraParents yields node v's additional optimal parents in the order
// they were added.
func (s *searcher) extraParents(v int32) iter.Seq[extraEdge] {
	return func(yield func(extraEdge) bool) {
		tail := s.nodes[v].extra
		if tail < 0 {
			return
		}
		for i := s.extras[tail].next; yield(s.extras[i]) && i != tail; i = s.extras[i].next {
		}
	}
}

// pushOpen copies the state into the arena and queues the node.
func (s *searcher) pushOpen(id int32, g int, cost int32, st state.State, pc int, havePC bool) {
	off, n := s.arena.Save(st)
	s.open.Push(s.priority(g, st, pc, havePC), openEntry{id: id, off: off, n: n, cost: cost, g: uint8(g), bound: uint8(s.bound)})
}

// recordSolution registers a sorted state found at depth g and tightens
// the length bound.
func (s *searcher) recordSolution(id int32, g int) {
	switch {
	case s.optLen == -1 || g < s.optLen:
		s.optLen = g
		s.sols = s.sols[:0]
		s.sols = append(s.sols, id)
		if g < s.bound {
			s.bound = g
		}
	case g == s.optLen:
		s.sols = append(s.sols, id)
	}
	if !s.opt.AllSolutions {
		s.done = true
	}
}

func (s *searcher) solutionsSoFar() int64 { return int64(len(s.sols)) }

// program reconstructs the primary program of a node.
func (s *searcher) program(id int32) isa.Program {
	var rev []isa.Instr
	for v := id; s.nodes[v].parent >= 0; v = s.nodes[v].parent {
		rev = append(rev, s.set.Instrs()[s.nodes[v].instr])
	}
	p := make(isa.Program, len(rev))
	for i, in := range rev {
		p[len(rev)-1-i] = in
	}
	return p
}

// rerank is the objective stage: it scores every enumerated
// optimal-length program with the uarch cost model and installs the
// ranking winner as Result.Program. Because the final tie-break is the
// canonical program text, the winner depends only on the enumerated
// set, not on the order the search reached it in. The caller's
// enumeration request is restored afterwards: Programs stays nil unless
// the caller asked for AllSolutions, and is truncated to the caller's
// MaxSolutions, in ranked (best-first) order.
func (s *searcher) rerank(r *Result) {
	ranked := rankPrograms(s.set, r.Programs, s.opt.Objective)
	r.RerankCandidates = len(ranked)
	r.RerankTruncated = r.SolutionCount > int64(len(ranked))
	r.Program = ranked[0].prog
	r.Cost = ranked[0].primary
	if !s.userAll {
		r.Programs = nil
		return
	}
	limit := s.userMaxSols
	if limit == 0 || limit > len(ranked) {
		limit = len(ranked)
	}
	out := make([]isa.Program, limit)
	for i := range out {
		out[i] = ranked[i].prog
	}
	r.Programs = out
}

// finish assembles the Result after the main loop.
func (s *searcher) finish() *Result {
	r := s.res
	if s.optLen >= 0 {
		r.Length = s.optLen
		r.Program = s.program(s.sols[0])
		if s.opt.AllSolutions {
			r.SolutionCount = s.countPaths()
			r.Programs = s.enumeratePrograms()
		} else {
			r.SolutionCount = 1
		}
		if s.opt.Objective != ObjectiveShortest {
			s.rerank(r)
		}
	}
	r.Proof = r.Exhausted && !r.TimedOut && !r.Cancelled &&
		s.opt.Cut == CutNone && !s.opt.UseActionGuide &&
		(s.opt.StateBudget == 0 || r.Expanded < s.opt.StateBudget)
	// Stamped after the path count, the enumeration and the ranking, so
	// Elapsed is the whole run's wall time.
	r.Elapsed = time.Since(s.start)
	if tr := s.opt.Trace; tr != nil {
		tr.sample(r.Elapsed, r, s.open.Len(), r.SolutionCount)
	}
	return r
}
