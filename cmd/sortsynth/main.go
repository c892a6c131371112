// Command sortsynth synthesizes sorting kernels from the command line.
//
// Examples:
//
//	sortsynth -n 3                       # minimal cmov kernel for 3 values
//	sortsynth -n 4 -isa minmax           # min/max kernel for 4 values
//	sortsynth -n 3 -all -max-solutions 5 # enumerate optimal kernels
//	sortsynth -n 3 -dupsafe              # kernel that also sorts ties
//	sortsynth -n 3 -prove 10             # prove no kernel of length ≤ 10
//	sortsynth -n 4 -prove 19 -timeout 1m # the same, giving up after a minute
//	sortsynth -verify "mov s1 r2; ..." -n 2
//	sortsynth -n 3 -backend smt          # synthesize through the SMT backend
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
		minimal   = flag.Bool("minimal", false, "certify minimality (no known bound needed; may be slow)")
		asm       = flag.Bool("asm", false, "print x86-64 assembly instead of the abstract syntax")
		prove     = flag.Int("prove", 0, "prove no kernel of length ≤ N exists (exhaustive)")
		verify    = flag.String("verify", "", "verify a kernel given as text instead of synthesizing")
		k         = flag.Float64("k", 1, "cut constant (0 disables the cut)")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget (0 = none)")
		quiet     = flag.Bool("q", false, "print only the kernel")

		backendName = flag.String("backend", "enum",
			"synthesis backend: one of the registry names ("+strings.Join(backend.Default().Names(), ", ")+")")
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
		res, err := sortsynth.ProveNoKernel(set, *prove, *timeout)
		if err != nil {
			log.Fatal(err)
		}
		switch res.Status {
		case sortsynth.StatusTimedOut:
			log.Fatalf("INCONCLUSIVE: proof timed out after %v (%d states); increase -timeout",
				res.Stats.Elapsed.Round(time.Millisecond), res.Stats.Nodes)
		case sortsynth.StatusNoProgram:
			fmt.Printf("PROVED: no %s kernel of length ≤ %d exists (%d states, %v)\n",
				set, *prove, res.Stats.Nodes, res.Stats.Elapsed.Round(time.Millisecond))
		case sortsynth.StatusFound:
			fmt.Printf("DISPROVED: found a length-%d kernel:\n%s\n", res.Length, res.Program.Format(*n))
		default:
			fmt.Printf("INCONCLUSIVE: search stopped before exhaustion (%s)\n", res.Status)
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
		res, err := sortsynth.SynthesizeMinimal(set, *timeout)
		if err != nil {
			log.Fatal(err)
		}
		if res.Status != sortsynth.StatusFound {
			log.Fatalf("no kernel found below the sorting-network bound (%s)", res.Status)
		}
		if !*quiet {
			cert := "minimality certified"
			if !res.Optimal {
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

	// Every synthesis runs through backend.Run, which verifies what it
	// prints. Enum runs as a backend.Enum under the flag-built options;
	// every other name runs as registered.
	spec := backend.Spec{MaxLen: bound, Seed: *seed, DuplicateSafe: *dupsafe, Objective: obj}
	b, err := backend.Default().Get(*backendName)
	if err != nil {
		log.Fatal(err)
	}
	if *backendName == "enum" {
		opt := enum.ConfigBest()
		if *all {
			opt = enum.ConfigAllSolutions()
			opt.MaxSolutions = *maxSols
		}
		opt.Cut, opt.CutK = enum.CutFactor, *k
		if *k == 0 {
			opt.Cut = enum.CutNone
		}
		b = &backend.Enum{Opt: opt}
	} else if *all {
		log.Fatal("-all applies only to the default enum backend")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := backend.Run(ctx, b, set, spec)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := res.Stats.Elapsed.Round(time.Millisecond)
	switch res.Status {
	case backend.StatusFound:
	case backend.StatusTimedOut:
		log.Fatalf("search timed out after %v (%d search nodes, no complete answer of length ≤ %d); increase -timeout",
			elapsed, res.Stats.Nodes, bound)
	default:
		log.Fatalf("%s: %s, no kernel of length ≤ %d found (%d search nodes in %v)",
			res.Backend, res.Status, bound, res.Stats.Nodes, elapsed)
	}
	if *all {
		if !*quiet {
			fmt.Printf("# %d optimal kernels of length %d (%v, %d states); showing %d\n",
				res.Solutions, res.Length, elapsed, res.Stats.Nodes, len(res.Programs))
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
		cert := ""
		if res.Optimal {
			cert = ", minimality certified"
		}
		fmt.Printf("# length %d via %s, %v, %d search nodes, score %d, est. throughput %.2f cycles%s\n",
			res.Length, res.Backend, elapsed, res.Stats.Nodes, a.Score, a.Throughput, cert)
		if obj != enum.ObjectiveShortest {
			fmt.Printf("# objective %s: winner of %d optimal kernels, cost %.3f\n", obj, res.Solutions, res.Cost)
		}
	}
	fmt.Print(emit(res.Program))
}
