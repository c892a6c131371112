package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"sortsynth/internal/backend"
	"sortsynth/internal/conformance"
	"sortsynth/internal/isa"
	"sortsynth/internal/kcache"
	"sortsynth/internal/service"
	"sortsynth/internal/universe"
)

var (
	bakeSeed  = flag.Int64("bake-seed", 1, "bakecheck: conformance spec-generator seed")
	bakeSpecs = flag.Int("bake-specs", 120, "bakecheck: conformance specs judged against the baked store")
)

func init() {
	register("bakecheck", "bake a miniature universe, byte-compare every record against live synthesis, judge it with the conformance harness, and serve from it (nonzero exit on any divergence)", false, func(c *ctx) error {
		dir, err := os.MkdirTemp("", "bakecheck")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "mini.ssuniv")

		// Phase 1: bake the miniature universe — both ISAs, n=2..3, the
		// enum backend with budgets L*±2 plus duplicate-safe variants.
		// (The other deterministic backends are exercised by the main
		// conformance gate; baking them here would pull SMT/CP solve time
		// into every `make check`.)
		opt := universe.Options{
			ISAs: []string{"cmov", "minmax"}, MinN: 2, MaxN: 3, Slack: 2,
			Backends: []string{"enum"}, DuplicateSafe: true,
			SpecTimeout: time.Minute,
		}
		c.section("Bake: miniature universe (enum, n=2..3, budgets L*±2, dupsafe)")
		start := time.Now()
		contentID, stats, err := universe.Bake(context.Background(), path, nil, opt)
		if err != nil {
			return fmt.Errorf("bake: %w", err)
		}
		c.printf("specs %d  kernels %d  refutations %d  skipped %d  failed %d  in %v\n",
			stats.Specs, stats.Baked, stats.Negative, stats.Skipped, stats.Failed, time.Since(start).Round(time.Millisecond))
		c.printf("content %s\n", contentID)
		if stats.Failed > 0 {
			return fmt.Errorf("bake: %d specs failed", stats.Failed)
		}

		store, err := universe.Open(path)
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		defer store.Close()
		if err := store.VerifyFull(); err != nil {
			return fmt.Errorf("full artifact verification: %w", err)
		}

		// Phase 2: differential replay — every enumerated spec is
		// re-synthesized live through the same registry choke point and
		// the baked record must match it byte for byte (identity fields;
		// timing is run-dependent by nature). Every negative record must
		// also lie below its set's proved optimum.
		c.section("Differential: every baked record vs a fresh live synthesis")
		reg := backend.Default()
		mismatches, unproved := 0, 0
		for _, sp := range universe.EnumerateSpecs(opt) {
			baked, ok := store.Lookup(sp.Key())
			if ok && baked.NoKernel {
				if lstar, _, proved := isa.ProvedOptimalLength(sp.Set()); !proved || baked.Length >= lstar {
					unproved++
					c.printf("UNPROVED %s: negative record of length %d, proved optimum %d (0: none)\n", sp, baked.Length, lstar)
				}
			}
			live, err := bakecheckLive(reg, sp)
			if err != nil {
				return fmt.Errorf("live synthesis for %s: %w", sp, err)
			}
			switch {
			case !ok && live == nil:
				// Skipped at bake time and inconclusive live: consistent.
			case !ok:
				mismatches++
				c.printf("MISSING %s: live synthesis concluded but the record was not baked\n", sp)
			case live == nil:
				mismatches++
				c.printf("EXTRA   %s: baked record for a spec live synthesis cannot conclude\n", sp)
			default:
				b, _ := json.Marshal(bakecheckIdentity(baked))
				l, _ := json.Marshal(bakecheckIdentity(live))
				if !bytes.Equal(b, l) {
					mismatches++
					c.printf("DIFF    %s:\n  baked %s\n  live  %s\n", sp, b, l)
				}
			}
		}
		if mismatches > 0 {
			return fmt.Errorf("differential replay: %d baked records diverge from live synthesis", mismatches)
		}
		if unproved > 0 {
			return fmt.Errorf("refutations: %d negative records lie outside the proved optima", unproved)
		}
		c.printf("all %d records byte-identical to live synthesis\n", store.Len())

		// Phase 3: the conformance judge, pointed at a registry containing
		// only the baked store. Found records re-verify centrally inside
		// backend.Run; refutations are held to the soundness rule against
		// independently computed ground truth. Unbaked specs read as
		// exhausted — no claim. Metamorphic invariants exercise live
		// engines, not a read-only store, so they are skipped here.
		c.section("Conformance: baked store as a backend vs ground truth")
		ureg := backend.NewRegistry()
		ureg.Register(universe.AsBackend(store))
		rep, err := conformance.Run(context.Background(), conformance.Options{
			Seed:            *bakeSeed,
			Specs:           *bakeSpecs,
			MaxN:            3,
			Registry:        ureg,
			SkipMetamorphic: true,
			Log: func(format string, args ...any) {
				c.printf(format+"\n", args...)
			},
		})
		if err != nil {
			return fmt.Errorf("conformance harness: %w", err)
		}
		rep.WriteText(c.w)
		if !rep.Ok() {
			return fmt.Errorf("conformance: %d divergences against the baked store", len(rep.Divergences))
		}

		// Phase 4: serve smoke — mount the artifact under the daemon and
		// check a baked spec is answered from L0 with zero searches.
		c.section("Serve: baked spec answered with zero searches")
		srv, err := service.New(service.Config{UniversePath: path})
		if err != nil {
			return fmt.Errorf("service: %w", err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()

		var sr struct {
			Source string `json:"source"`
			Length int    `json:"length"`
		}
		if err := bakecheckPost(ts.URL+"/v1/synthesize", `{"n": 3}`, &sr); err != nil {
			return err
		}
		if sr.Source != "universe" || sr.Length != 11 {
			return fmt.Errorf("serve: source=%q length=%d, want a length-11 universe hit", sr.Source, sr.Length)
		}
		var m struct {
			Searches struct {
				Started float64 `json:"started"`
			} `json:"searches"`
		}
		if err := bakecheckGet(ts.URL+"/metrics", &m); err != nil {
			return err
		}
		if m.Searches.Started != 0 {
			return fmt.Errorf("serve: %v searches started, want 0", m.Searches.Started)
		}
		c.printf("universe hit for n=3 (length %d), searches started: 0\n", sr.Length)
		return nil
	})
}

// bakecheckLive replays one spec through the registry exactly the way
// the bake does, mapping the result with the bake's own entry builder;
// nil is a no-claim outcome the bake skips.
func bakecheckLive(reg *backend.Registry, sp universe.Spec) (*kcache.Entry, error) {
	set := sp.Set()
	spec := backend.Spec{MaxLen: sp.Budget, DuplicateSafe: sp.DuplicateSafe, Objective: sp.Objective}
	res, err := reg.Synthesize(context.Background(), sp.Backend, set, spec)
	if err != nil {
		return nil, err
	}
	return universe.EntryFor(set, spec, res), nil
}

// bakecheckIdentity projects an entry onto the fields that must be
// byte-identical between a bake and a live run; timing and search
// effort counters are run-dependent and excluded.
func bakecheckIdentity(e *kcache.Entry) map[string]any {
	return map[string]any{
		"backend":   e.Backend,
		"objective": e.Objective,
		"cost":      e.Cost,
		"program":   e.Program,
		"length":    e.Length,
		"no_kernel": e.NoKernel,
		"solutions": e.SolutionCount,
	}
}

func bakecheckPost(url, body string, out any) error {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func bakecheckGet(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}
