package enum

import (
	"fmt"
	"sort"

	"sortsynth/internal/isa"
	"sortsynth/internal/uarch"
)

// Objective selects what a synthesis run optimizes among the
// minimum-length programs. Length always comes first — every objective
// returns a program from the optimal-length solution set — the
// objective decides which member of that set wins:
//
//   - ObjectiveShortest (the zero value) is the paper's behavior: the
//     first optimal program found, no uarch ranking.
//   - ObjectiveFastest ranks the optimal set by the uarch cost model —
//     steady-state throughput first, then the §5.3 instruction-weight
//     score, then the latency-weighted critical path (the model-best
//     convention of cmd/genkernels).
//   - ObjectiveBalanced ranks by the equal-weight blend of throughput
//     and critical path — a compromise between repeated-invocation
//     bandwidth and single-call latency — then the score.
//
// Every ranking breaks remaining ties by the canonical program text, so
// the winner is a pure function of the solution set (and therefore of
// the spec), not of the search's traversal order.
type Objective uint8

// Objectives, in canonical order. The zero value preserves historical
// behavior everywhere an Options struct is zero-initialized.
const (
	ObjectiveShortest Objective = iota
	ObjectiveFastest
	ObjectiveBalanced
)

// String returns the canonical name used in flags, the HTTP API, and
// cache keys.
func (o Objective) String() string {
	switch o {
	case ObjectiveShortest:
		return "shortest"
	case ObjectiveFastest:
		return "fastest"
	case ObjectiveBalanced:
		return "balanced"
	}
	return fmt.Sprintf("objective(%d)", uint8(o))
}

// ParseObjective parses a canonical objective name; "" means shortest.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "", "shortest":
		return ObjectiveShortest, nil
	case "fastest":
		return ObjectiveFastest, nil
	case "balanced":
		return ObjectiveBalanced, nil
	}
	return 0, &UnknownObjectiveError{Name: s}
}

// UnknownObjectiveError reports an objective name (or out-of-range
// value) the engine does not implement.
type UnknownObjectiveError struct{ Name string }

func (e *UnknownObjectiveError) Error() string {
	return fmt.Sprintf("enum: unknown objective %q (want shortest, fastest or balanced)", e.Name)
}

// rerankCap bounds how many optimal programs an objective run
// materializes for ranking when the caller did not ask for the programs
// themselves. Small sets fit (n=3 cmov: 234 programs), but not every
// set does: at cmov n=4 the optimal set holds 7,043,960 programs, so
// the winner there comes from the first 65,536 in enumeration order.
// Result.RerankTruncated reports such a prefix pick. Ranking the whole
// set is an open ROADMAP item ("Make objective=fastest mean what it
// says at n≥4").
const rerankCap = 1 << 16

// rankedProgram is one re-rank candidate with its sort keys
// precomputed.
type rankedProgram struct {
	prog    isa.Program
	primary float64
	score   int
	cp      int
	text    string
}

// rankPrograms orders the optimal-length candidates best-first under
// obj. The final tie-break on canonical program text makes the
// order — and in particular the winner — a pure function of the
// candidate set.
func rankPrograms(set *isa.Set, progs []isa.Program, obj Objective) []rankedProgram {
	rs := make([]rankedProgram, len(progs))
	for i, p := range progs {
		a := uarch.Analyze(set, p)
		r := rankedProgram{prog: p, score: a.Score, cp: a.CriticalPath, text: p.Format(set.N)}
		if obj == ObjectiveBalanced {
			r.primary = 0.5*a.Throughput + 0.5*float64(a.CriticalPath)
		} else {
			r.primary = a.Throughput
		}
		rs[i] = r
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].primary != rs[j].primary {
			return rs[i].primary < rs[j].primary
		}
		if rs[i].score != rs[j].score {
			return rs[i].score < rs[j].score
		}
		if rs[i].cp != rs[j].cp {
			return rs[i].cp < rs[j].cp
		}
		return rs[i].text < rs[j].text
	})
	return rs
}

// RankPrograms orders candidate programs best-first under obj, with the
// same deterministic tie-breaks the engine applies, and returns the
// winner's primary cost. It is the re-rank stage exposed for callers
// that already hold a solution set (tests, tooling, single-solution
// backends). The uarch model has one core: profile must be "" or
// uarch.ProfileName, and any other name is an error.
func RankPrograms(set *isa.Set, progs []isa.Program, obj Objective, profile string) ([]isa.Program, float64, error) {
	if obj > ObjectiveBalanced {
		return nil, 0, &UnknownObjectiveError{Name: obj.String()}
	}
	if profile != "" && profile != uarch.ProfileName {
		return nil, 0, fmt.Errorf("enum: unknown uarch profile %q (want %q)", profile, uarch.ProfileName)
	}
	if len(progs) == 0 {
		return nil, 0, nil
	}
	ranked := rankPrograms(set, progs, obj)
	out := make([]isa.Program, len(ranked))
	for i := range ranked {
		out[i] = ranked[i].prog
	}
	return out, ranked[0].primary, nil
}
