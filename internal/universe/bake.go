package universe

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sortsynth/internal/backend"
	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/kcache"
)

// Spec is one bakeable synthesis instance. Its Key must be constructed
// exactly the way sortsynthd constructs serving keys, or the baked
// record never hits.
type Spec struct {
	ISA           string // "cmov" or "minmax"
	N             int
	M             int
	Backend       string // registry name
	Budget        int    // MaxLen bound
	DuplicateSafe bool   // enum only: the service rejects it elsewhere
	// Objective selects the ranking objective (enum only — the
	// single-solution backends reject anything but shortest, and
	// EnumerateSpecs never emits it for them).
	Objective enum.Objective
}

// Set instantiates the instruction set for the spec.
func (sp Spec) Set() *isa.Set {
	if sp.ISA == "minmax" {
		return isa.NewMinMax(sp.N, sp.M)
	}
	return isa.NewCmov(sp.N, sp.M)
}

// Key returns the serving cache key for the spec, mirroring
// handleSynthesize: the enum backend keys on the full ConfigBest option
// surface, every other backend on the reduced (name, budget) form.
func (sp Spec) Key() kcache.Key {
	if sp.Backend == "enum" {
		opt := enum.ConfigBest()
		opt.MaxLen = sp.Budget
		opt.DuplicateSafe = sp.DuplicateSafe
		opt.Objective = sp.Objective
		return kcache.KeyFor(sp.Set(), opt)
	}
	return kcache.KeyForBackend(sp.Set(), sp.Backend, sp.Budget, 0)
}

func (sp Spec) String() string {
	s := fmt.Sprintf("%s/%s n=%d m=%d maxlen=%d", sp.Backend, sp.ISA, sp.N, sp.M, sp.Budget)
	if sp.DuplicateSafe {
		s += " dupsafe"
	}
	if sp.Objective != enum.ObjectiveShortest {
		s += " obj=" + sp.Objective.String()
	}
	return s
}

// DeterministicBackends lists the registry backends whose artifact is a
// pure function of the spec, the only ones worth baking. A backend whose
// cache key carries a seed (backend.Seeded) would only ever hit for the
// exact seed baked.
func DeterministicBackends() []string {
	var names []string
	for _, name := range backend.Default().Names() {
		if !backend.Seeded(name) {
			names = append(names, name)
		}
	}
	return names
}

// Options configures a bake. The zero value is completed by defaults():
// both ISAs, n=2..5, m=1, budgets L*±2, the deterministic backends,
// duplicate-safe variants on, one worker, 60s per spec.
type Options struct {
	ISAs     []string
	MinN     int
	MaxN     int
	Slack    int // budgets span [L*-Slack, L*+Slack]
	Backends []string
	// DuplicateSafe also bakes the duplicate-safe variant of every enum
	// spec (the service accepts the knob only for enum).
	DuplicateSafe bool
	// Objectives lists the ranking objectives baked for every enum spec
	// (nil = shortest and fastest). Non-enum backends are always baked
	// shortest-only — they reject anything else.
	Objectives []enum.Objective
	// Workers is the number of specs synthesized concurrently.
	Workers int
	// SpecTimeout bounds each synthesis; a spec that exceeds it is
	// skipped (and counted), not failed — the live tier still covers it.
	SpecTimeout time.Duration
	// Log receives progress lines; nil discards them.
	Log func(format string, args ...any)
}

func (o Options) defaults() Options {
	if len(o.ISAs) == 0 {
		o.ISAs = []string{"cmov", "minmax"}
	}
	if o.MinN == 0 {
		o.MinN = 2
	}
	if o.MaxN == 0 {
		o.MaxN = 5
	}
	if o.Slack == 0 {
		o.Slack = 2
	}
	if len(o.Backends) == 0 {
		o.Backends = DeterministicBackends()
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.SpecTimeout == 0 {
		o.SpecTimeout = 60 * time.Second
	}
	if len(o.Objectives) == 0 {
		o.Objectives = []enum.Objective{enum.ObjectiveShortest, enum.ObjectiveFastest}
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// EnumerateSpecs produces the deterministic, duplicate-free spec list a
// bake covers under opt. Exported so verification tooling (bake-check)
// walks exactly the baked space.
func EnumerateSpecs(opt Options) []Spec {
	opt = opt.defaults()
	var specs []Spec
	for _, isaName := range opt.ISAs {
		for n := opt.MinN; n <= opt.MaxN; n++ {
			lstar, ok := isa.KnownOptimalLength(Spec{ISA: isaName, N: n, M: 1}.Set())
			if !ok {
				continue
			}
			for _, be := range opt.Backends {
				for budget := lstar - opt.Slack; budget <= lstar+opt.Slack; budget++ {
					if budget < 1 {
						continue
					}
					// Non-enum backends reject every objective but
					// shortest; baking one would just record the error.
					objectives := []enum.Objective{enum.ObjectiveShortest}
					if be == "enum" {
						objectives = opt.Objectives
					}
					for _, obj := range objectives {
						specs = append(specs, Spec{ISA: isaName, N: n, M: 1, Backend: be, Budget: budget, Objective: obj})
						if opt.DuplicateSafe && be == "enum" {
							specs = append(specs, Spec{ISA: isaName, N: n, M: 1, Backend: be, Budget: budget, DuplicateSafe: true, Objective: obj})
						}
					}
				}
			}
		}
	}
	return specs
}

// BakeStats summarizes a bake.
type BakeStats struct {
	Specs    int // enumerated
	Baked    int // positive records written
	Negative int // refutation records written
	Skipped  int // timed out or inconclusive — left to the live tier
	Failed   int // synthesis errors
}

// result is one worker's outcome for a spec.
type result struct {
	spec  Spec
	entry *kcache.Entry // nil when skipped or failed
	err   error
}

// Bake synthesizes every spec in opt's space through the registry's
// central verification (backend.Run) and writes the artifact to path
// atomically (temp file + rename). Failed specs do not abort the bake;
// they are counted in Stats.Failed and the caller decides. The returned
// contentID is the artifact's hex SHA-256.
func Bake(ctx context.Context, path string, registry *backend.Registry, opt Options) (contentID string, stats BakeStats, err error) {
	opt = opt.defaults()
	if registry == nil {
		registry = backend.Default()
	}
	specs := EnumerateSpecs(opt)
	stats.Specs = len(specs)

	jobs := make(chan Spec)
	results := make(chan result)
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range jobs {
				e, err := bakeOne(ctx, registry, sp, opt)
				results <- result{spec: sp, entry: e, err: err}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, sp := range specs {
			select {
			case jobs <- sp:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	collected := make([]result, 0, len(specs))
	for r := range results {
		switch {
		case r.err != nil:
			stats.Failed++
			opt.Log("FAIL %s: %v", r.spec, r.err)
		case r.entry == nil:
			stats.Skipped++
			opt.Log("skip %s", r.spec)
		case r.entry.NoKernel:
			stats.Negative++
			opt.Log("none %s", r.spec)
		default:
			stats.Baked++
			opt.Log("bake %s: length %d", r.spec, r.entry.Length)
		}
		if r.entry != nil {
			collected = append(collected, r)
		}
	}
	if ctx.Err() != nil {
		return "", stats, ctx.Err()
	}
	// Deterministic write order (the index re-sorts by key sum anyway,
	// but a stable record section keeps equal bakes byte-identical).
	sort.Slice(collected, func(i, j int) bool {
		return collected[i].spec.Key().Canonical() < collected[j].spec.Key().Canonical()
	})

	tmp := path + ".tmp"
	w, err := Create(tmp)
	if err != nil {
		return "", stats, err
	}
	defer os.Remove(tmp)
	for _, r := range collected {
		if err := w.Add(r.spec.Key(), r.entry); err != nil {
			w.Close()
			return "", stats, err
		}
	}
	contentID, _, err = w.Close()
	if err != nil {
		return "", stats, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", stats, fmt.Errorf("universe: %w", err)
	}
	opt.Log("wrote %s: %d records (%d kernels, %d refutations), content %s",
		filepath.Base(path), stats.Baked+stats.Negative, stats.Baked, stats.Negative, contentID[:12])
	return contentID, stats, nil
}

// bakeOne synthesizes one spec. It returns (nil, nil) for outcomes the
// universe cannot speak for: timeouts and non-enum budget exhaustion.
func bakeOne(ctx context.Context, registry *backend.Registry, sp Spec, opt Options) (*kcache.Entry, error) {
	ctx, cancel := context.WithTimeout(ctx, opt.SpecTimeout)
	defer cancel()

	set := sp.Set()
	spec := backend.Spec{MaxLen: sp.Budget, DuplicateSafe: sp.DuplicateSafe, Objective: sp.Objective}
	res, err := registry.Synthesize(ctx, sp.Backend, set, spec)
	if err != nil {
		return nil, err
	}
	// A per-spec timeout is a skip; a bake-wide cancel is an error.
	if res.Status == backend.StatusCancelled && ctx.Err() == context.Canceled {
		return nil, ctx.Err()
	}
	// ElapsedNS stays unset: wall clock is the one run-dependent field,
	// and leaving it out keeps equal bakes byte-identical (same content
	// ID), so replicas can compare artifacts by hash. A universe hit
	// therefore reports search_ms 0: no search ran for that request.
	return EntryFor(set, spec, res), nil
}

// EntryFor maps a verified synthesis result onto the artifact stored
// for its key, the same for the bake and for sortsynthd's live tier. It
// returns nil for outcomes no artifact speaks for: a stopped search, and
// a non-enum backend's spent budget, which proves nothing. An enum
// search that exhausts without a proof (the §3.5 cut or the action
// guide voids it) is recorded as a refutation of spec.MaxLen, as
// sortsynthd has always answered it. ElapsedNS is left to the caller.
func EntryFor(set *isa.Set, spec backend.Spec, res *backend.Result) *kcache.Entry {
	switch {
	case res.Status == backend.StatusFound:
	case res.Status == backend.StatusNoProgram,
		res.Status == backend.StatusExhausted && res.Backend == "enum":
		return &kcache.Entry{Backend: res.Backend, NoKernel: true, Length: spec.MaxLen}
	default:
		return nil
	}
	var objName string
	if spec.Objective != enum.ObjectiveShortest {
		objName = spec.Objective.String()
	}
	e := &kcache.Entry{
		Backend:       res.Backend,
		Objective:     objName,
		Cost:          res.Cost,
		Program:       res.Program.Format(set.N),
		Length:        res.Length,
		SolutionCount: max(res.Solutions, 1), // 0: the one program a single-solution backend returns
		Expanded:      res.Stats.Nodes,
		Generated:     res.Stats.Generated,
	}
	for _, p := range res.Programs {
		e.Programs = append(e.Programs, p.Format(set.N))
	}
	return e
}
