// Package enum implements the paper's enumerative synthesis algorithm for
// sorting kernels (§3): a Dijkstra/A* search over canonical execution
// states with
//
//   - search heuristics (permutation count, register-assignment count,
//     per-assignment instructions needed, §3.1),
//   - an instruction action guide derived from precomputed per-assignment
//     optimal programs (§3.2, non-optimality-preserving),
//   - viability checks (value erasure and per-assignment budget, §3.3),
//   - the non-optimality-preserving permutation-count cut (§3.5), and
//   - deduplication of semantically equivalent partial programs (§3.6),
//     which doubles as the path DAG from which all optimal solutions are
//     enumerated.
package enum

import (
	"time"

	"sortsynth/internal/uarch"
)

// Heuristic selects the A* guidance of §3.1.
type Heuristic uint8

// Available search heuristics.
const (
	HeurNone      Heuristic = iota // f = g: plain Dijkstra order
	HeurPermCount                  // f = g + w·(#distinct permutations − 1)
	HeurAsgCount                   // f = g + w·(#distinct register assignments − 1)
	HeurDistMax                    // f = g + max assignment distance (admissible)
)

// String returns the name used in the ablation tables.
func (h Heuristic) String() string {
	switch h {
	case HeurNone:
		return "none"
	case HeurPermCount:
		return "permutation count"
	case HeurAsgCount:
		return "register assignment count"
	case HeurDistMax:
		return "assignment instructions needed"
	}
	return "unknown"
}

// CutMode selects the §3.5 cut variant.
type CutMode uint8

// Cut variants.
const (
	CutNone     CutMode = iota
	CutFactor           // discard s at length ℓ if perm_count(s) > K · min perm_count at ℓ−1
	CutAdditive         // discard s at length ℓ if perm_count(s) > min perm_count at ℓ−1 + K
)

// Options configures one synthesis run.
type Options struct {
	// Heuristic orders the open list; Weight scales it (0 means 1).
	Heuristic Heuristic
	Weight    float64

	// Cut enables the non-optimality-preserving §3.5 cut with constant
	// CutK (the factor k, or the additive constant for CutAdditive).
	Cut  CutMode
	CutK float64

	// UseDistPrune enables the per-assignment budget check of §3.3 using
	// the precomputed distance tables: a state is discarded when some
	// assignment cannot be sorted within the remaining instruction budget.
	// This is optimality-preserving.
	UseDistPrune bool

	// UseActionGuide restricts expansion to instructions that start an
	// optimal completion of some individual assignment (§3.2).
	// Non-optimality-preserving.
	UseActionGuide bool

	// ViabilityErase enables the cheap §3.3 value-erasure check. It is
	// subsumed by UseDistPrune and on by default in the named configs.
	ViabilityErase bool

	// MaxLen bounds the program length (inclusive). 0 means unbounded
	// (in practice bounded by MaxDepth, the engine's depth ceiling).
	// Values above MaxDepth are rejected with a *DepthLimitError in
	// Result.Err rather than silently truncated. The search also tightens
	// the bound to the best solution found.
	MaxLen int

	// AllSolutions keeps searching after the first solution and records
	// the full optimal-path DAG so that every minimal program (up to
	// MaxSolutions) can be enumerated.
	AllSolutions bool

	// MaxSolutions caps the number of programs materialized by
	// AllSolutions (0 = unlimited). The DAG path count is exact either
	// way.
	MaxSolutions int

	// Workers has no effect.
	//
	// Deprecated: ignored; search runs on one goroutine.
	Workers int

	// StateBudget caps the number of expanded states (0 = unlimited).
	StateBudget int64

	// Timeout aborts the search after the given wall time (0 = none).
	//
	// Deprecated: prefer RunContext with context.WithTimeout. A non-zero
	// Timeout is kept working by wiring it to context.WithTimeout inside
	// RunContext, so existing callers behave exactly as before.
	Timeout time.Duration

	// Trace, if non-nil, receives periodic search samples (Figure 1).
	Trace *Trace

	// DuplicateSafe searches over the weak-order test suite instead of
	// the paper's permutation suite: synthesized kernels then provably
	// sort arbitrary integers including ties, not just distinct values.
	// This repository's extension — the paper's §2.3 criterion admits
	// kernels that mis-sort duplicates (see EXPERIMENTS.md).
	DuplicateSafe bool

	// Objective selects which member of the optimal-length solution set
	// the run returns (see the Objective type). The zero value,
	// ObjectiveShortest, is the paper's first-found behavior. Any other
	// objective makes the engine enumerate the optimal set internally
	// (as if AllSolutions were set) and rank it with the uarch cost
	// model; the bucket queue additionally orders equal-(f, g) pops by
	// accumulated instruction weight so the search walks
	// toward cheap programs first.
	Objective Objective

	// Profile names the uarch profile the objective ranking runs under
	// ("" = the default big out-of-order core). Unknown names are
	// rejected with an *UnknownProfileError in Result.Err. Ignored —
	// and excluded from cache keys — when Objective is shortest.
	Profile string
}

// weight returns the effective heuristic weight.
func (o *Options) weight() float64 {
	if o.Weight == 0 {
		return 1
	}
	return o.Weight
}

// CanonicalProfile returns the profile name as it participates in cache
// keys: "" when the objective is shortest (the ranking never runs, so
// the profile cannot influence the artifact and must not fragment the
// key space), otherwise the resolved profile name with the default
// spelled out. Unresolvable names are returned verbatim — they are
// rejected before any artifact exists.
func (o Options) CanonicalProfile() string {
	if o.Objective == ObjectiveShortest {
		return ""
	}
	if p, ok := uarch.ProfileByName(o.Profile); ok {
		return p.Name
	}
	return o.Profile
}

// ConfigDijkstra is plain Dijkstra enumeration with deduplication
// (ablation row "dijkstra, single core").
func ConfigDijkstra() Options {
	return Options{Heuristic: HeurNone, ViabilityErase: true}
}

// ConfigBase is the ablation baseline (I): A* with deduplication and no
// heuristic.
func ConfigBase() Options {
	return Options{Heuristic: HeurNone, ViabilityErase: true}
}

// ConfigBest is the paper's best configuration (III): permutation-count
// heuristic, per-assignment viability check, action guide, and the cut
// with k = 1 (§5.2).
func ConfigBest() Options {
	return Options{
		Heuristic:      HeurPermCount,
		UseDistPrune:   true,
		UseActionGuide: true,
		ViabilityErase: true,
		Cut:            CutFactor,
		CutK:           1,
	}
}

// ConfigAllSolutions enumerates every optimal solution: permutation-count
// guidance and optimality-preserving pruning only (a cut of k ≥ 2 may be
// added by the caller; the paper shows k = 2 preserves all solutions for
// n = 3).
func ConfigAllSolutions() Options {
	return Options{
		Heuristic:      HeurPermCount,
		UseDistPrune:   true,
		ViabilityErase: true,
		AllSolutions:   true,
	}
}

// ConfigProof is the exhaustive lower-bound mode: only
// optimality-preserving pruning, no heuristic ordering tricks needed.
// Run with MaxLen = L to certify that no kernel of length ≤ L exists.
func ConfigProof(maxLen int) Options {
	return Options{
		Heuristic:      HeurDistMax,
		UseDistPrune:   true,
		ViabilityErase: true,
		MaxLen:         maxLen,
		AllSolutions:   true,
	}
}
