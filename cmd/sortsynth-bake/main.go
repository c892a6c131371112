// Command sortsynth-bake precomputes the kernel universe: it enumerates
// every reachable synthesis spec (both ISAs, a range of n, a budget band
// around the known optimal lengths, the deterministic backends, the
// duplicate-safe enum variants), synthesizes each one through the
// registry's central verification, and writes a single immutable,
// checksummed, content-addressed artifact that sortsynthd mounts with
// -universe to serve the whole space with zero searches.
//
//	sortsynth-bake -o universe.ssuniv
//	GOMAXPROCS=4 sortsynth-bake -o mini.ssuniv -max-n 3 -backends enum
//	sortsynthd -universe universe.ssuniv
//
// Specs are synthesized GOMAXPROCS at a time (every core by default);
// the artifact is byte-identical at any GOMAXPROCS.
//
// The exit status is nonzero if any spec failed to synthesize (timed-out
// or inconclusive specs are skipped, not failed: the live tier still
// covers them).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"sortsynth/internal/enum"
	"sortsynth/internal/universe"
)

func main() {
	log.SetFlags(0)
	var (
		out     = flag.String("o", "universe.ssuniv", "output artifact path (written atomically)")
		isas    = flag.String("isas", "cmov,minmax", "comma-separated instruction sets to bake")
		minN    = flag.Int("min-n", 2, "smallest array length")
		maxN    = flag.Int("max-n", 5, "largest array length")
		slack   = flag.Int("slack", 2, "budget band half-width around the optimal length L*")
		banames = flag.String("backends", strings.Join(universe.DeterministicBackends(), ","),
			"comma-separated deterministic backends to bake")
		dupsafe = flag.Bool("dupsafe", true, "also bake duplicate-safe enum variants")
		objs    = flag.String("objectives", "shortest,fastest",
			"comma-separated ranking objectives to bake for the enum backend")
		timeout = flag.Duration("spec-timeout", 60*time.Second, "per-spec synthesis bound (exceeding it skips the spec)")
		quiet   = flag.Bool("q", false, "suppress per-spec progress lines")
	)
	flag.Parse()

	objectives := make([]enum.Objective, 0, 3)
	for _, name := range splitList(*objs) {
		o, err := enum.ParseObjective(name)
		if err != nil {
			log.Fatalf("-objectives: %v", err)
		}
		objectives = append(objectives, o)
	}

	opt := universe.Options{
		ISAs:          splitList(*isas),
		MinN:          *minN,
		MaxN:          *maxN,
		Slack:         *slack,
		Backends:      splitList(*banames),
		DuplicateSafe: *dupsafe,
		Objectives:    objectives,
		SpecTimeout:   *timeout,
	}
	if !*quiet {
		opt.Log = log.Printf
	}
	n := len(universe.EnumerateSpecs(opt))
	log.Printf("baking %d specs into %s (%d workers, %v per spec)", n, *out, runtime.GOMAXPROCS(0), *timeout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	contentID, stats, err := universe.Bake(ctx, *out, nil, opt)
	if err != nil {
		log.Fatalf("bake: %v", err)
	}
	log.Printf("done in %v: %d kernels, %d refutations, %d skipped, %d failed",
		time.Since(start).Round(time.Millisecond), stats.Baked, stats.Negative, stats.Skipped, stats.Failed)
	fmt.Printf("%s  %s\n", contentID, *out)
	if stats.Failed > 0 {
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
