// Command sortsynth synthesizes sorting kernels from the command line.
//
// Examples:
//
//	sortsynth -n 3                       # minimal cmov kernel for 3 values
//	sortsynth -n 4 -isa minmax           # min/max kernel for 4 values
//	sortsynth -n 3 -all -max-solutions 5 # enumerate optimal kernels
//	sortsynth -n 3 -dupsafe              # kernel that also sorts ties
//	sortsynth -n 3 -prove 10             # prove no kernel of length ≤ 10
//	sortsynth -verify "mov s1 r2; ..." -n 2
//	sortsynth -n 3 -backend smt          # synthesize through the SMT backend
//	sortsynth -n 3 -portfolio enum,stoke # launch in order 25 ms apart, keep the first verified win
//	sortsynth -emit-sorter -n 13         # emit a full branchless Sort13 as Go source
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"sortsynth"
	"sortsynth/internal/backend"
	"sortsynth/internal/enum"
	"sortsynth/internal/sortgen"
)

func main() {
	log.SetFlags(0)
	var (
		n       = flag.Int("n", 3, "array length (number of values to sort)")
		m       = flag.Int("m", 1, "scratch registers")
		isaName = flag.String("isa", "cmov", "instruction set: cmov or minmax")
		maxLen  = flag.Int("len", 0, "length bound (0 = known optimal for this set)")
		all     = flag.Bool("all", false, "enumerate all optimal kernels")
		maxSols = flag.Int("max-solutions", 10, "programs to print in -all mode")
		dupsafe = flag.Bool("dupsafe", false, "require correctness on duplicate values")

		objective = flag.String("objective", "", `ranking objective: "shortest" (default), "fastest" or "balanced"; for -emit-sorter: "fastest" (default) or "shortest"`)
		profile   = flag.String("uarch-profile", "", "uarch profile for objective ranking (see internal/uarch; empty = big-ooo default)")
		minimal   = flag.Bool("minimal", false, "certify minimality (no known bound needed; may be slow)")
		asm       = flag.Bool("asm", false, "print x86-64 assembly instead of the abstract syntax")
		prove     = flag.Int("prove", 0, "prove no kernel of length ≤ N exists (exhaustive)")
		verify    = flag.String("verify", "", "verify a kernel given as text instead of synthesizing")
		k         = flag.Float64("k", 1, "cut constant (0 disables the cut)")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget (0 = none)")
		quiet     = flag.Bool("q", false, "print only the kernel")

		backendName = flag.String("backend", "enum",
			"synthesis backend: one of the registry names ("+strings.Join(backend.Default().Names(), ", ")+")")
		portfolioList = flag.String("portfolio", "",
			"run a comma-separated list of backends (or \"all\") as a portfolio: members launch in list order, 25 ms apart, and the first verified kernel wins")
		seed = flag.Int64("seed", 0, "seed for the randomized backends (stoke, mcts)")

		emitSorter = flag.Bool("emit-sorter", false,
			"emit a complete branchless sorter for length -n as Go source (kernel blocks + merge networks)")
		elemType = flag.String("elem", "int", "element type for -emit-sorter (ordered integer types or string)")
		pkgName  = flag.String("pkg", "", `package name for -emit-sorter (default "sorter")`)
		funcName = flag.String("func", "", `function name for -emit-sorter (default "Sort<n>")`)
	)
	flag.Parse()

	if *emitSorter {
		sorterObj := enum.ObjectiveFastest // a generated sorter exists to be executed
		if *objective != "" {
			var err error
			if sorterObj, err = enum.ParseObjective(*objective); err != nil {
				log.Fatal(err)
			}
		}
		plan, err := sortgen.ComposeObjective(*n, sorterObj)
		if err != nil {
			log.Fatal(err)
		}
		src, err := plan.GoFile(sortgen.EmitOptions{Package: *pkgName, FuncName: *funcName, Elem: *elemType})
		if err != nil {
			log.Fatal(err)
		}
		if !*quiet {
			log.Printf("# n=%d blocks=%s kernel instructions=%d merge comparators=%d",
				*n, plan.BlocksDesc(), plan.KernelInstructions(), plan.Comparators())
		}
		fmt.Print(src)
		return
	}

	var set *sortsynth.Set
	switch *isaName {
	case "cmov":
		set = sortsynth.NewCmovSet(*n, *m)
	case "minmax":
		set = sortsynth.NewMinMaxSet(*n, *m)
	default:
		log.Fatalf("unknown -isa %q (want cmov or minmax)", *isaName)
	}

	if *verify != "" {
		p, err := sortsynth.Parse(*verify, *n)
		if err != nil {
			log.Fatal(err)
		}
		if ce := sortsynth.Counterexample(set, p); ce != nil {
			fmt.Printf("INCORRECT: fails on input %v\n", ce)
			os.Exit(1)
		}
		a := sortsynth.Analyze(set, p)
		fmt.Printf("correct on all permutations and duplicates\n%d instructions, score %d, critical path %d, est. throughput %.2f cycles\n",
			a.Instructions, a.Score, a.CriticalPath, a.Throughput)
		return
	}

	if *prove > 0 {
		start := time.Now()
		ok, res := sortsynth.ProveNoKernel(set, *prove)
		switch {
		case ok:
			fmt.Printf("PROVED: no %s kernel of length ≤ %d exists (%d states, %v)\n",
				set, *prove, res.Expanded, time.Since(start).Round(time.Millisecond))
		case res.Length >= 0:
			fmt.Printf("DISPROVED: found a length-%d kernel:\n%s\n", res.Length, res.Program.Format(*n))
		default:
			fmt.Printf("INCONCLUSIVE: search stopped before exhaustion (timeout/budget)\n")
			os.Exit(1)
		}
		return
	}

	emit := func(p sortsynth.Program) string {
		if *asm {
			return sortsynth.AsmX86(set, p)
		}
		return p.Format(*n) + "\n"
	}

	if *minimal {
		res := sortsynth.SynthesizeMinimal(set, *timeout)
		if res.Length < 0 {
			log.Fatal("no kernel found below the sorting-network bound")
		}
		if !*quiet {
			cert := "minimality certified"
			if !res.Proof {
				cert = "minimality NOT certified (budget); shortest found"
			}
			fmt.Printf("# length %d, %s\n", res.Length, cert)
		}
		fmt.Print(emit(res.Program))
		return
	}

	bound := *maxLen
	if bound == 0 {
		var ok bool
		if bound, ok = sortsynth.KnownOptimalLength(set); !ok {
			log.Fatalf("no known optimal length for %s; pass -len or use -minimal", set)
		}
	}

	obj, err := enum.ParseObjective(*objective)
	if err != nil {
		log.Fatal(err)
	}

	if *portfolioList != "" || *backendName != "enum" {
		if *all {
			log.Fatal("-all applies only to the default enum backend")
		}
		runBackend(set, *n, bound, *backendName, *portfolioList, *seed, *dupsafe, obj, *profile, *timeout, *asm, *quiet)
		return
	}

	opt := enum.ConfigBest()
	opt.MaxLen = bound
	opt.DuplicateSafe = *dupsafe
	if *k == 0 {
		opt.Cut = enum.CutNone
	} else {
		opt.Cut, opt.CutK = enum.CutFactor, *k
	}
	if *all {
		opt = enum.ConfigAllSolutions()
		opt.MaxLen = bound
		opt.DuplicateSafe = *dupsafe
		opt.MaxSolutions = *maxSols
		if *k > 0 {
			opt.Cut, opt.CutK = enum.CutFactor, *k
		}
	}
	opt.Objective = obj
	opt.Profile = *profile

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res := sortsynth.SynthesizeContext(ctx, set, opt)
	if res.TimedOut || res.Cancelled {
		why := "timed out"
		if res.Cancelled {
			why = "was cancelled"
		}
		if *all && res.Length >= 0 {
			log.Fatalf("search %s after %v: enumeration incomplete (found kernels of length %d, but the count and set are partial); increase -timeout",
				why, res.Elapsed.Round(time.Millisecond), res.Length)
		}
		log.Fatalf("search %s after %v (expanded %d states, no kernel of length ≤ %d found); increase -timeout",
			why, res.Elapsed.Round(time.Millisecond), res.Expanded, bound)
	}
	if res.Length < 0 {
		log.Fatalf("no kernel of length ≤ %d found (expanded %d states in %v)", bound, res.Expanded, res.Elapsed)
	}
	if *all {
		if !*quiet {
			fmt.Printf("# %d optimal kernels of length %d (%v, %d states); showing %d\n",
				res.SolutionCount, res.Length, res.Elapsed.Round(time.Millisecond), res.Expanded, len(res.Programs))
		}
		for i, p := range res.Programs {
			if i > 0 {
				fmt.Println("---")
			}
			fmt.Print(emit(p))
		}
		return
	}
	if !*quiet {
		a := sortsynth.Analyze(set, res.Program)
		fmt.Printf("# length %d, %v, %d states expanded, score %d, est. throughput %.2f cycles\n",
			res.Length, res.Elapsed.Round(time.Millisecond), res.Expanded, a.Score, a.Throughput)
		if obj != enum.ObjectiveShortest {
			fmt.Printf("# objective %s: ranked %d optimal kernels, winner cost %.3f\n",
				obj, res.RerankCandidates, res.Cost)
		}
	}
	fmt.Print(emit(res.Program))
}

// runBackend synthesizes through the backend registry: a single named
// backend, or a portfolio race over a comma-separated list ("all" races
// every non-portfolio backend). Correctness is checked centrally by
// backend.Run; a printed kernel is always verified.
func runBackend(set *sortsynth.Set, n, bound int, name, portfolio string, seed int64, dupsafe bool, obj enum.Objective, profile string, timeout time.Duration, asm, quiet bool) {
	reg := backend.Default()
	spec := backend.Spec{MaxLen: bound, Seed: seed, DuplicateSafe: dupsafe, Objective: obj, Profile: profile}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	var res *backend.Result
	var err error
	if portfolio != "" {
		var members []backend.Backend
		names := strings.Split(portfolio, ",")
		if portfolio == "all" {
			names = nil
			for _, bn := range reg.Names() {
				if bn != "portfolio" {
					names = append(names, bn)
				}
			}
		}
		for _, bn := range names {
			b, gerr := reg.Get(strings.TrimSpace(bn))
			if gerr != nil {
				log.Fatal(gerr)
			}
			members = append(members, b)
		}
		res, err = backend.Run(ctx, backend.NewPortfolio(members...), set, spec)
	} else {
		res, err = reg.Synthesize(ctx, name, set, spec)
	}
	if err != nil {
		log.Fatal(err)
	}

	if res.Status != backend.StatusFound {
		for _, e := range res.Race {
			log.Printf("  %-6s %-10s %v", e.Backend, e.Status, e.Stats.Elapsed.Round(time.Millisecond))
		}
		log.Fatalf("%s: %s after %v (no kernel of length ≤ %d)",
			res.Backend, res.Status, res.Stats.Elapsed.Round(time.Millisecond), bound)
	}
	if !quiet {
		who := res.Backend
		if res.Winner != "" {
			who = res.Winner + " (won the race)"
		}
		opt := ""
		if res.Optimal {
			opt = ", minimality certified"
		}
		fmt.Printf("# length %d via %s, %v%s\n",
			res.Length, who, res.Stats.Elapsed.Round(time.Millisecond), opt)
		for _, e := range res.Race {
			fmt.Printf("#   %-6s %-10s %v\n", e.Backend, e.Status, e.Stats.Elapsed.Round(time.Millisecond))
		}
	}
	if asm {
		fmt.Print(sortsynth.AsmX86(set, res.Program))
	} else {
		fmt.Print(res.Program.Format(n) + "\n")
	}
}
