package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sortsynth/internal/backend"
	"sortsynth/internal/bench"
	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/tuned"
)

var (
	tuneMaxN    = flag.Int("tune-max-n", 3, "autotune: largest problem size swept (n=4 additionally needs -slow)")
	tuneRounds  = flag.Int("tune-rounds", 3, "autotune: timing rounds per candidate (best-of)")
	tuneTimeout = flag.Duration("tune-timeout", 5*time.Second, "autotune: per-candidate synthesis budget")
	tuneOut     = flag.String("tune-out", "", "autotune: tuned-table output path (default <out>/tuned.json)")
)

// tuneCompareThreshold is the minimum staggered/racing capacity ratio
// (specs per second of engine time) tunecompare accepts. Staggering
// exists to stop paying two losing engines per answered spec, so the
// win should be large; 1.05 only filters measurement noise.
const tuneCompareThreshold = 1.05

// Stagger policy: the predicted best gets a solo window of a few times
// its measured wall clock — enough that normal jitter never launches a
// fallback, small enough that a stuck first pick falls back long before
// any realistic deadline. The floor keeps microsecond-scale classes
// (n=2) from scheduling fallbacks on scheduler noise; the cap keeps a
// mismeasured class from parking fallbacks for whole seconds. The
// portfolio's deadline-pressure clamp further shrinks the window on
// tight requests.
const (
	staggerFactor  = 4.0
	staggerFloorMS = 25.0
	staggerCapMS   = 2000.0
)

// tuneClass is one cell of the sweep grid: ISA × n × duplicate-safety
// × ranking objective.
type tuneClass struct {
	kind isa.Kind
	n    int
	dup  bool
	obj  enum.Objective
}

func (tc tuneClass) class() tuned.Class {
	return tuned.Class{ISA: tc.kind.String(), N: tc.n, DuplicateSafe: tc.dup, Objective: tc.obj.String()}
}

func (tc tuneClass) set() *isa.Set { return isa.New(tc.kind, tc.n, 1) }

// tuneOptimum mirrors sortsynth.KnownOptimalLength for m=1 (the root
// package cannot be imported from cmd/ without dragging in its serving
// deps): the certified optimal kernel lengths the sweep uses as
// budgets, so fixed-length backends synthesize at exactly the optimum.
func tuneOptimum(kind isa.Kind, n int) (int, bool) {
	var table map[int]int
	if kind == isa.KindCmov {
		table = map[int]int{2: 4, 3: 11, 4: 20, 5: 33}
	} else {
		table = map[int]int{2: 3, 3: 8, 4: 15, 5: 26}
	}
	l, ok := table[n]
	return l, ok
}

// sweepClasses enumerates the grid: both ISAs, n = 2..maxN, both
// duplicate-safety settings for shortest, plus the ranking objectives
// (dup=false only — objective search is an enum-only spec class and the
// dup axis would double its cost without changing the single-entry
// ranking).
func sweepClasses(maxN int, objectives bool) []tuneClass {
	var classes []tuneClass
	for _, kind := range []isa.Kind{isa.KindCmov, isa.KindMinMax} {
		for n := 2; n <= maxN; n++ {
			for _, dup := range []bool{false, true} {
				classes = append(classes, tuneClass{kind: kind, n: n, dup: dup})
			}
			if objectives {
				for _, obj := range []enum.Objective{enum.ObjectiveFastest, enum.ObjectiveBalanced} {
					classes = append(classes, tuneClass{kind: kind, n: n, obj: obj})
				}
			}
		}
	}
	return classes
}

// tuneStagger derives a plan's stagger from its best measured wall.
func tuneStagger(bestWallMS float64) float64 {
	s := bestWallMS * staggerFactor
	if s < staggerFloorMS {
		s = staggerFloorMS
	}
	if s > staggerCapMS {
		s = staggerCapMS
	}
	return s
}

// buildTunedTable measures every portfolio member on every class and
// assembles the dispatch table: OK candidates ranked by wall clock,
// failures appended (they still serve as last-resort fallbacks), the
// stagger derived from the winner's wall. With knobs set it also sweeps
// enum worker counts and search configs into Plan.Sweep — audit rows
// that justify the serving defaults, never dispatch targets.
func buildTunedTable(c *ctx, classes []tuneClass, rounds int, timeout time.Duration, knobs bool) (*tuned.Table, error) {
	reg := backend.NewDefault()
	pb, err := reg.Get("portfolio")
	if err != nil {
		return nil, err
	}
	members := pb.(*backend.Portfolio).Backends()

	entries := map[string]tuned.Plan{}
	var t tableWriter
	t.row("class", "best", "wall_ms", "stagger_ms", "ranking")
	for _, tc := range classes {
		budget, ok := tuneOptimum(tc.kind, tc.n)
		if !ok {
			continue
		}
		set := tc.set()
		spec := backend.Spec{MaxLen: budget, Seed: 1, DuplicateSafe: tc.dup, Objective: tc.obj}

		var ranked []tuned.Candidate
		for _, name := range members {
			// Ranking objectives are an enum-only capability: the other
			// members refuse them with a typed error before doing any
			// work, so measuring them would only record the refusal.
			if tc.obj != enum.ObjectiveShortest && name != "enum" {
				continue
			}
			b, err := reg.Get(name)
			if err != nil {
				return nil, err
			}
			ct := bench.TimeCandidate(context.Background(), b, set, spec, timeout, rounds)
			ranked = append(ranked, tuned.Candidate{
				Backend: ct.Backend, WallMS: ct.WallMS, Rounds: ct.Rounds, OK: ct.OK, Note: ct.Note,
			})
		}
		sort.SliceStable(ranked, func(i, j int) bool {
			if ranked[i].OK != ranked[j].OK {
				return ranked[i].OK
			}
			return ranked[i].OK && ranked[i].WallMS < ranked[j].WallMS
		})
		if !ranked[0].OK {
			// No member answered this class within the budget: an entry
			// would pin an arbitrary order, so leave the class untuned
			// (a Pick miss races everything, which is the right call).
			c.printf("  %s: no candidate succeeded, leaving class untuned\n", tc.class().Key())
			continue
		}

		plan := tuned.Plan{Ranked: ranked, StaggerMS: tuneStagger(ranked[0].WallMS)}
		if knobs && tc.obj == enum.ObjectiveShortest && !tc.dup {
			plan.Sweep = sweepEnumKnobs(set, budget, timeout, rounds)
		}
		entries[tc.class().Key()] = plan

		var names []string
		for _, cand := range ranked {
			tag := cand.Backend
			if !cand.OK {
				tag += "(lost)"
			}
			names = append(names, tag)
		}
		t.row(tc.class().Key(), ranked[0].Backend,
			fmt.Sprintf("%.3f", ranked[0].WallMS),
			fmt.Sprintf("%.1f", plan.StaggerMS),
			fmt.Sprintf("%v", names))
	}
	t.flush(c.w)
	if len(entries) == 0 {
		return nil, fmt.Errorf("autotune: every class came up empty")
	}
	return &tuned.Table{Entries: entries}, nil
}

// sweepEnumKnobs measures the enum engine's own knob — the search
// configuration — on one class. The rows land in Plan.Sweep for the
// record; the ranked plan always dispatches the registry's default enum
// (ConfigBest).
func sweepEnumKnobs(set *isa.Set, budget int, timeout time.Duration, rounds int) []tuned.Candidate {
	knobs := []struct {
		label string
		opt   enum.Options
	}{
		{"enum[best]", enum.ConfigBest()},
		{"enum[base]", enum.ConfigBase()},
		{"enum[dijkstra]", enum.ConfigDijkstra()},
	}
	var sweep []tuned.Candidate
	for _, k := range knobs {
		opt := k.opt
		opt.MaxLen = budget
		opt.Timeout = timeout
		m, err := bench.MeasureSearch(set, opt, rounds)
		if err != nil {
			sweep = append(sweep, tuned.Candidate{Backend: k.label, Rounds: rounds, Note: err.Error()})
			continue
		}
		sweep = append(sweep, tuned.Candidate{Backend: k.label, WallMS: m.WallMS, Rounds: rounds, OK: true})
	}
	return sweep
}

func init() {
	register("autotune", "sweep backend×config per spec class and write the tuned dispatch table", false, func(c *ctx) error {
		maxN := *tuneMaxN
		if maxN > 3 && !c.slow {
			maxN = 3
		}
		c.section(fmt.Sprintf("Autotune sweep (n ≤ %d, best-of-%d, %s per candidate)", maxN, *tuneRounds, *tuneTimeout))

		tab, err := buildTunedTable(c, sweepClasses(maxN, true), *tuneRounds, *tuneTimeout, true)
		if err != nil {
			return err
		}

		out := *tuneOut
		if out == "" {
			out = filepath.Join(c.out, "tuned.json")
		}
		if err := tuned.Write(out, tab); err != nil {
			return err
		}
		// Round-trip through the strict loader: a table this run cannot
		// reload is a table no server should ever be handed.
		loaded, err := tuned.Load(out)
		if err != nil {
			return fmt.Errorf("autotune wrote an unloadable table: %w", err)
		}
		c.printf("\nwrote %s: version %d, %d classes, checksum %s...\n",
			out, loaded.Version, len(loaded.Entries), loaded.Checksum[:12])
		return nil
	})

	register("tunecompare", "capacity regression gate: staggered dispatch vs racing on a tuned mini-table", false, func(c *ctx) error {
		c.section("Tuned-dispatch capacity gate (staggered vs race-everything)")
		ctx := context.Background()

		// Mini-sweep (shortest only, single round) into a throwaway dir,
		// then back through the strict loader — the same path a serving
		// process takes.
		dir, err := os.MkdirTemp("", "tunecompare")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		var mini []tuneClass
		for _, tc := range sweepClasses(3, false) {
			if !tc.dup {
				mini = append(mini, tc)
			}
		}
		tab, err := buildTunedTable(c, mini, 1, 3*time.Second, false)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "tuned.json")
		if err := tuned.Write(path, tab); err != nil {
			return err
		}
		if tab, err = tuned.Load(path); err != nil {
			return err
		}

		reg := backend.NewDefault()
		pb, err := reg.Get("portfolio")
		if err != nil {
			return err
		}
		pf := pb.(*backend.Portfolio)
		staggered := pf.WithScheduler(tuned.NewScheduler(tab, pf.Backends()))

		// A mixed-class workload, every class repeated with distinct
		// seeds, answered by direct enum for the reference kernels.
		enumB, err := reg.Get("enum")
		if err != nil {
			return err
		}
		var items []bench.CapacityItem
		var refs []bench.CapacityAnswer
		for _, tc := range mini {
			set := tc.set()
			budget, _ := tuneOptimum(tc.kind, tc.n)
			for seed := int64(1); seed <= 3; seed++ {
				spec := backend.Spec{MaxLen: budget, Seed: seed}
				res, err := backend.Run(ctx, enumB, set, spec)
				if err != nil {
					return fmt.Errorf("enum reference for %v: %w", set, err)
				}
				items = append(items, bench.CapacityItem{Set: set, Spec: spec})
				refs = append(refs, bench.CapacityAnswer{
					Winner: "enum", Length: res.Length, Kernel: res.Program.FormatInline(set.N),
				})
			}
		}

		racing, err := bench.MeasureCapacity(ctx, pf, items, 10*time.Second)
		if err != nil {
			return fmt.Errorf("racing capacity run: %w", err)
		}
		stag, err := bench.MeasureCapacity(ctx, staggered, items, 10*time.Second)
		if err != nil {
			return fmt.Errorf("staggered capacity run: %w", err)
		}

		var t tableWriter
		t.row("mode", "specs", "wall_ms", "engine_ms", "specs/sec/core", "launches", "parked")
		for _, r := range []struct {
			mode string
			cm   bench.CapacityMeasurement
		}{{"racing", racing}, {"staggered", stag}} {
			t.row(r.mode, fmt.Sprintf("%d", r.cm.Specs),
				fmt.Sprintf("%.1f", r.cm.WallMS), fmt.Sprintf("%.1f", r.cm.EngineMS),
				fmt.Sprintf("%.1f", r.cm.SpecsPerSecCore),
				fmt.Sprintf("%d", r.cm.Launches), fmt.Sprintf("%d", r.cm.Skipped))
		}
		t.flush(c.w)

		// Answer gate: tuned dispatch must reorder engines, never
		// answers. When the predicted best (enum) won the staggered race
		// its pinned seed makes the kernel deterministic — byte-identical
		// to the reference. A fallback win (scheduling, not correctness)
		// and every racing answer must still land on the certified
		// optimal length; central verification already proved them
		// correct.
		divergences := 0
		for i := range items {
			if a := stag.Answers[i]; a.Winner == "enum" && a.Kernel != refs[i].Kernel {
				divergences++
				c.printf("DIVERGE staggered %v seed=%d: enum won with a different kernel\n  ref: %s\n  got: %s\n",
					items[i].Set, items[i].Spec.Seed, refs[i].Kernel, a.Kernel)
			} else if a.Length != refs[i].Length {
				divergences++
				c.printf("DIVERGE staggered %v seed=%d: length %d (winner %s), reference %d\n",
					items[i].Set, items[i].Spec.Seed, a.Length, a.Winner, refs[i].Length)
			}
			if a := racing.Answers[i]; a.Length != refs[i].Length {
				divergences++
				c.printf("DIVERGE racing %v seed=%d: length %d (winner %s), reference %d\n",
					items[i].Set, items[i].Spec.Seed, a.Length, a.Winner, refs[i].Length)
			}
		}

		ratio := 0.0
		if racing.SpecsPerSecCore > 0 {
			ratio = stag.SpecsPerSecCore / racing.SpecsPerSecCore
		}
		c.printf("\ncapacity ratio (staggered / racing): %.2fx (gate: ≥ %.2fx), divergences: %d\n",
			ratio, tuneCompareThreshold, divergences)

		switch {
		case divergences > 0:
			return fmt.Errorf("tunecompare: %d answer divergences", divergences)
		case stag.Skipped == 0:
			return fmt.Errorf("tunecompare: staggered dispatch parked no launches — the tuned table is not steering the portfolio")
		case ratio < tuneCompareThreshold:
			return fmt.Errorf("tunecompare: capacity ratio %.2fx below the %.2fx gate", ratio, tuneCompareThreshold)
		}
		return nil
	})
}
