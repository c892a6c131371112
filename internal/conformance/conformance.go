// Package conformance is the correctness analogue of the bench-compare
// throughput gate: a differential- and metamorphic-testing harness over
// every registered synthesis backend.
//
// The differential half generates randomized backend.Specs (both ISAs,
// n = 2..MaxN, varied scratch counts, budgets around the true optimum,
// seeds, and timeouts) and judges each backend's outcome against ground
// truth computed by the admissible enumerative search (HeurDistMax +
// optimality-preserving pruning only, so the first solution found is
// provably minimal and an exhausted search is a refutation proof):
//
//   - a found program must verify, have a consistent length within the
//     budget, and never beat the true optimum;
//   - the enum backend, and any backend asserting Optimal, must match
//     the true optimum exactly;
//   - a no-program refutation is unsound — and flagged — whenever the
//     true optimum fits inside the refuted budget (with m ≥ 1 scratch
//     registers an optimal kernel pads to every longer length, so
//     "no program of exactly length L" and "no program of length ≤ L"
//     refute the same budgets);
//   - exhausted, timed-out, and cancelled outcomes claim nothing and are
//     never divergences: under a 300ms-per-backend budget the slower
//     encodings time out routinely, and that must stay harmless;
//   - ranking objectives (fastest, balanced) are a distinct spec class:
//     the enum backend must still land exactly on the certified optimal
//     length (re-ranking changes which member of the set is returned,
//     never its length), while single-solution backends must refuse with
//     the typed UnsupportedObjectiveError — a no-claim outcome.
//
// The metamorphic half checks invariants that hold by construction —
// canonicalization idempotence and hash stability, initial-state
// symmetry under test-suite input order, the 0-1 principle against full
// permutation verification, optimal-length invariance across enum
// search variants, and the engine's bucket queue and flat dedup table
// against executable reference models.
//
// Wired in as `cmd/experiments -table=conformance` (deterministic under
// -seed, nonzero exit on any divergence) and `make conformance`.
package conformance

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sortsynth/internal/backend"
)

// Options configures a conformance run. The zero value means: seed 1,
// 200 specs, n ≤ 3, 300ms per backend per spec, the default backend
// registry, and min(8, GOMAXPROCS) specs judged concurrently.
type Options struct {
	// Seed drives the spec generator and every metamorphic trial; the
	// generated spec stream is a pure function of it.
	Seed int64

	// Specs is the number of differential specs to generate.
	Specs int

	// MaxN caps the generated problem size. 2 keeps a run in the
	// sub-second range (tests), 3 is the smoke default, 4 additionally
	// generates min/max specs at n=4 (slower ground truth).
	MaxN int

	// BackendTimeout bounds each backend on each spec. Timeouts are
	// no-claim outcomes, never divergences.
	BackendTimeout time.Duration

	// Parallel is the number of specs judged concurrently (each spec
	// additionally fans out across its backends).
	Parallel int

	// Registry supplies the backends under test; nil means
	// backend.Default(), i.e. all seven synthesizers.
	Registry *backend.Registry

	// Extra backends are judged alongside the registry's. Used by the
	// negative tests (and -inject) to plant deliberately lying backends
	// the harness must catch.
	Extra []backend.Backend

	// SkipMetamorphic restricts the run to the differential half.
	SkipMetamorphic bool

	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (o Options) resolved() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Specs <= 0 {
		o.Specs = 200
	}
	if o.MaxN < 2 {
		o.MaxN = 3
	}
	if o.BackendTimeout <= 0 {
		o.BackendTimeout = 300 * time.Millisecond
	}
	if o.Parallel <= 0 {
		// Judged specs spend most of their wall clock waiting out the
		// per-backend timeout, so oversubscribing specs relative to
		// cores is fine — statuses shift toward timed-out under load,
		// which is a no-claim outcome either way.
		o.Parallel = min(8, runtime.GOMAXPROCS(0))
	}
	if o.Registry == nil {
		o.Registry = backend.Default()
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// dupCapable are the backends that can honour Spec.DuplicateSafe: enum
// searches the weak-order suite directly, and smt switches CEGIS to
// arbitrary-input counterexamples. The universe store replays enum-baked
// records keyed on the duplicate-safe flag, so its answers carry the
// same guarantee. The
// other engines synthesize against the permutation suite only, so
// running them on duplicate-safe specs would manufacture IncorrectError
// "divergences" that are really just an unsupported capability.
var dupCapable = map[string]bool{
	"enum": true, "smt": true, "universe": true,
}

// engines lists each engine of reg once, in name order. A name that
// resolves to a backend of another name is an alias ("portfolio" for
// enum), judged under that name already.
func engines(reg *backend.Registry) []backend.Backend {
	var bs []backend.Backend
	for _, name := range reg.Names() {
		if b, err := reg.Get(name); err == nil && b.Name() == name {
			bs = append(bs, b)
		}
	}
	return bs
}

// Run executes the conformance harness. The returned Report carries
// every divergence found; err is reserved for harness failures (a
// ground-truth search failing, an unusable registry), never for
// divergences.
func Run(ctx context.Context, opt Options) (*Report, error) {
	opt = opt.resolved()
	start := time.Now()

	rep := &Report{
		Seed:     opt.Seed,
		MaxN:     opt.MaxN,
		Timeout:  opt.BackendTimeout,
		Statuses: map[string]map[string]int{},
	}
	for _, b := range append(engines(opt.Registry), opt.Extra...) {
		rep.Backends = append(rep.Backends, b.Name())
	}

	truths := newTruthCache(opt.Log)
	specs, err := generateSpecs(ctx, opt, truths)
	if err != nil {
		return nil, err
	}
	rep.Specs = len(specs)
	rep.SpecDigest = digestSpecs(specs)
	rep.GroundTruth = truths.rows()

	// Differential half: a bounded pool of spec judges, each fanning out
	// across the backends.
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		sem  = make(chan struct{}, opt.Parallel)
		done int
	)
	for i := range specs {
		sp := specs[i]
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			divs, statuses := judgeSpec(ctx, opt, sp)
			mu.Lock()
			rep.Divergences = append(rep.Divergences, divs...)
			for be, st := range statuses {
				m := rep.Statuses[be]
				if m == nil {
					m = map[string]int{}
					rep.Statuses[be] = m
				}
				m[st]++
			}
			done++
			if done%50 == 0 {
				opt.Log("conformance: %d/%d specs judged", done, len(specs))
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	if !opt.SkipMetamorphic {
		rep.Invariants = runMetamorphic(ctx, opt, truths)
		for _, inv := range rep.Invariants {
			rep.Divergences = append(rep.Divergences, inv.Divergences...)
		}
	}

	rep.Elapsed = time.Since(start)
	return rep, nil
}

// specLabel renders the spec identity used in divergence reports.
func specLabel(sp spec) string {
	return fmt.Sprintf("%s budget=%d seed=%d dup=%v obj=%s timeout=%s",
		sp.set().String(), sp.budget, sp.seed, sp.dup, sp.obj, sp.timeout)
}
