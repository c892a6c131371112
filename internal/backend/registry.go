package backend

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"sortsynth/internal/cp"
	"sortsynth/internal/enum"
	"sortsynth/internal/ilp"
	"sortsynth/internal/isa"
	"sortsynth/internal/mcts"
	"sortsynth/internal/plan"
	"sortsynth/internal/smt"
	"sortsynth/internal/stoke"
)

// Registry maps backend names to Backend instances. The zero value is
// not usable; call NewRegistry. Safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	backends map[string]Backend
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{backends: make(map[string]Backend)}
}

// Register adds b under b.Name(). Registering a name twice is a
// programming error and panics.
func (r *Registry) Register(b Backend) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := b.Name()
	if _, dup := r.backends[name]; dup {
		panic(fmt.Sprintf("backend: duplicate registration of %q", name))
	}
	r.backends[name] = b
}

// Get resolves a backend by name, returning *UnknownBackendError when
// absent.
func (r *Registry) Get(name string) (Backend, error) {
	r.mu.RLock()
	b, ok := r.backends[name]
	r.mu.RUnlock()
	if !ok {
		return nil, &UnknownBackendError{Name: name, Known: r.Names()}
	}
	return b, nil
}

// Has reports whether name is registered.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.backends[name]
	return ok
}

// Names returns the registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.backends))
	for n := range r.backends {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Synthesize resolves name and runs it through Run, so every result a
// registry hands out has passed central verification.
func (r *Registry) Synthesize(ctx context.Context, name string, set *isa.Set, spec Spec) (*Result, error) {
	b, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	return Run(ctx, b, set, spec)
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the shared registry with all seven synthesizers in
// their paper-best configurations, plus a "portfolio" backend over the
// three engines that cover the practical spectrum, in launch order:
// enum for optimality (certifying its refutations), smt for
// fixed-length completeness, stoke for stochastic luck. The instances
// are stateless per call, so sharing is safe.
func Default() *Registry {
	defaultOnce.Do(func() {
		r := NewRegistry()
		r.Register(NewEnum(enum.ConfigBest()))
		r.Register(NewSMT(smt.Options{
			Goal:        smt.GoalAscCounts0,
			Encoding:    smt.EncodingDense,
			Incremental: true,
		}, true))
		r.Register(NewCP(cp.Options{
			Goal:             cp.GoalAscCounts0,
			NoConsecutiveCmp: true,
			CmpSymmetry:      true,
			NoSelfOps:        true,
		}))
		r.Register(NewILP(ilp.Options{MaxNodes: 5_000_000}))
		r.Register(NewStoke(stoke.Options{}))
		r.Register(NewMCTS(mcts.Options{}))
		// Plan-Parallel GBFS + h_add (the LAMA-analogue row): the
		// serialized Plan-Seq heuristic stalls beyond n=2 here.
		r.Register(NewPlan(plan.Options{
			Algorithm: plan.GBFS,
			Heuristic: plan.HAdd,
			MaxNodes:  2_000_000,
		}))
		// The portfolio's enum certifies an empty-handed search, so a
		// budget below the optimum ends the race with a sound
		// refutation instead of waiting out smt. The cap covers every
		// n ≤ 3 budget (with the pair bound, cmov n=3 at length 10
		// takes 2,625 states, 4,315 duplicate-safe) and bounds the
		// extra work everywhere else.
		smtB, _ := r.Get("smt")
		stokeB, _ := r.Get("stoke")
		r.Register(NewPortfolio(&Enum{Opt: enum.ConfigBest(), ProofBudget: 1 << 18}, smtB, stokeB))
		defaultReg = r
	})
	return defaultReg
}
