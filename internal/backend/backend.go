// Package backend defines the common interface over the repository's
// seven synthesis engines (enum, smt, cp, ilp, stoke, mcts, plan): a
// shared Spec/Result/Stats vocabulary, a registry keyed by backend name,
// and central correctness verification.
//
// The engines themselves keep their native options and result types;
// adapters in this package translate to and from the shared vocabulary.
// Correctness checking happens in exactly one place — Run — so no
// call site needs its own "verify the winner" logic.
package backend

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/verify"
)

// Spec is the backend-independent synthesis request.
type Spec struct {
	// MaxLen is the program-length budget. The fixed-length backends
	// (smt, cp, ilp, stoke) synthesize at exactly this length and
	// require it to be > 0; the search backends (enum, mcts, plan)
	// treat it as an upper bound, with 0 meaning "engine default".
	MaxLen int

	// Seed seeds the randomized backends (stoke, mcts). The other
	// backends ignore it; Seeded names the ones whose cache key keeps
	// it.
	Seed int64

	// DuplicateSafe demands a kernel that sorts arbitrary inputs
	// including ties, not just distinct values (the weak-order suite;
	// see EXPERIMENTS.md). Backends that can, synthesize directly
	// against that suite; either way Run verifies the winner against
	// it, so a merely permutation-correct program is rejected.
	DuplicateSafe bool

	// Objective selects which member of the optimal-length solution
	// set the backend returns (enum.ObjectiveShortest, the zero value,
	// is every backend's historical behavior). Only the enum backend
	// enumerates solution sets; the single-solution backends accept
	// shortest only and reject anything else with an
	// *UnsupportedObjectiveError — they have no set to rank.
	Objective enum.Objective
}

// Status classifies a synthesis outcome.
type Status uint8

// Outcomes.
const (
	// StatusFound: a program satisfying the spec was synthesized (and,
	// when returned by Run, centrally verified).
	StatusFound Status = iota
	// StatusNoProgram: proven — no program exists within the budget
	// length. Sound refutation, not a resource stop.
	StatusNoProgram
	// StatusExhausted: the backend's own budget (nodes, conflicts,
	// proposals, iterations) ran out without a program or a proof.
	StatusExhausted
	// StatusCancelled: the context was cancelled before an outcome.
	StatusCancelled
	// StatusTimedOut: a deadline (context or engine timeout) expired
	// before an outcome.
	StatusTimedOut
)

func (s Status) String() string {
	switch s {
	case StatusFound:
		return "found"
	case StatusNoProgram:
		return "no-program"
	case StatusExhausted:
		return "exhausted"
	case StatusCancelled:
		return "cancelled"
	case StatusTimedOut:
		return "timed-out"
	}
	return "status?"
}

// Stats is the backend-independent effort report. Engines count
// different things; each adapter documents the mapping.
type Stats struct {
	Elapsed time.Duration
	// Nodes is the primary search-effort counter: expanded states
	// (enum, plan), DFS nodes (cp, ilp), conflicts (smt), tree nodes
	// (mcts), proposals (stoke).
	Nodes int64
	// Generated counts produced successors where the engine tracks
	// them (enum, plan); 0 otherwise.
	Generated int64
	// Iterations counts outer-loop rounds where the engine has one:
	// CEGIS refinements (smt), MCTS iterations. 0 otherwise.
	Iterations int64
}

// Result is the backend-independent synthesis outcome.
type Result struct {
	// Backend is the name of the backend that produced this result.
	Backend string
	Status  Status
	// Program is the synthesized kernel (nil unless Status is
	// StatusFound).
	Program isa.Program
	// Programs lists the enumerated optimal kernels, ranked under a
	// non-shortest objective, when the backend enumerated the solution
	// set for the caller (enum under AllSolutions); nil otherwise.
	Programs []isa.Program
	// Length is len(Program) for StatusFound, else the length budget
	// the verdict applies to.
	Length int
	// Optimal reports that minimality is certified: the backend proved
	// no shorter program exists (only the enum backend in an
	// optimality-preserving configuration asserts this).
	Optimal bool
	// Solutions is the exact optimal-program count when the backend
	// enumerated the solution set (enum under AllSolutions or a
	// non-shortest objective); 0 when it synthesized a single program.
	Solutions int64
	// Cost is the winner's primary uarch metric for non-shortest
	// objectives (see enum.Result.Cost); 0 under shortest.
	Cost float64
	// RerankTruncated reports that the optimal set outgrew the ranking
	// cap, so Program is the best of a deterministic prefix of it (see
	// enum.Result.RerankTruncated).
	RerankTruncated bool
	Stats           Stats
}

// Backend is one synthesis engine behind the common vocabulary.
//
// Synthesize must honour ctx: when ctx is cancelled it returns promptly
// with StatusCancelled (or StatusTimedOut on deadline expiry). It
// returns an error only for malformed specs or internal failures —
// "no program" and "budget ran out" are Statuses, not errors.
type Backend interface {
	Name() string
	Synthesize(ctx context.Context, set *isa.Set, spec Spec) (*Result, error)
}

// UnknownBackendError reports a name not present in a Registry.
type UnknownBackendError struct {
	Name  string
	Known []string
}

func (e *UnknownBackendError) Error() string {
	return fmt.Sprintf("backend: unknown backend %q (known: %s)",
		e.Name, strings.Join(e.Known, ", "))
}

// UnsupportedObjectiveError reports a non-shortest Spec.Objective sent
// to a backend that synthesizes a single program and therefore has no
// solution set to rank. A client error, like UnknownBackendError —
// never a backend bug.
type UnsupportedObjectiveError struct {
	Backend   string
	Objective enum.Objective
}

func (e *UnsupportedObjectiveError) Error() string {
	return fmt.Sprintf("backend %s: objective %q is not supported (single-solution backend accepts only \"shortest\")",
		e.Backend, e.Objective)
}

// requireShortest is the shared guard for the single-solution backends.
func requireShortest(name string, spec Spec) error {
	if spec.Objective != enum.ObjectiveShortest {
		return &UnsupportedObjectiveError{Backend: name, Objective: spec.Objective}
	}
	return nil
}

// IncorrectError reports that a backend claimed StatusFound but central
// verification produced a counterexample — a backend bug, never a user
// error.
type IncorrectError struct {
	Backend string
	// Input is the counterexample: an input the program fails to sort.
	Input []int
}

func (e *IncorrectError) Error() string {
	return fmt.Sprintf("backend %s: synthesized program fails on input %v", e.Backend, e.Input)
}

// Seeded reports whether the named backend's cache key carries
// Spec.Seed: stoke and mcts seed their search with it, and "portfolio"
// answers as deterministic enum but keeps the seed in its key so
// existing keys hash byte-identically. Every other backend's artifact
// is a pure function of the rest of the spec.
func Seeded(name string) bool {
	return name == "stoke" || name == "mcts" || name == "portfolio"
}

// Run invokes b and centrally verifies every claimed program: the
// single place correctness is checked, for direct calls and registry
// calls alike. On StatusFound, Program and each of Programs are checked
// against the full permutation suite (and the weak-order suite when
// spec.DuplicateSafe); a counterexample turns the result into an
// *IncorrectError.
func Run(ctx context.Context, b Backend, set *isa.Set, spec Spec) (*Result, error) {
	res, err := b.Synthesize(ctx, set, spec)
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("backend %s: nil result without error", b.Name())
	}
	if res.Status == StatusFound {
		for _, p := range append([]isa.Program{res.Program}, res.Programs...) {
			ce := verify.Counterexample(set, p)
			if ce == nil && spec.DuplicateSafe {
				ce = verify.DuplicateCounterexample(set, p)
			}
			if ce != nil {
				return nil, &IncorrectError{Backend: b.Name(), Input: ce}
			}
		}
	}
	return res, nil
}

// stopStatus maps a cancelled context to the right terminal status:
// deadline expiry reads as a timeout, everything else as cancellation.
func stopStatus(ctx context.Context) Status {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return StatusTimedOut
	}
	return StatusCancelled
}
