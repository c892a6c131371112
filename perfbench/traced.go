package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sortsynth/internal/kernels"
)

// spanLayers are the layers the benchmark calls directly and reports
// self time for. backend is reached only through the service (and the
// universe bake), so its time is inside those spans.
var spanLayers = []string{"bench", "tables", "state", "enum", "uarch", "verify", "service", "kcache", "universe", "sortgen", "kernels"}

// exactCounts are the per-layer counts that must repeat exactly between
// two traced repetitions of the same work.
var exactCounts = []string{
	"enum.expanded.first", "enum.expanded.enum", "enum.expanded.proof",
	"enum.solutions.enum", "enum.rerank_candidates", "enum.w1_w2_kernel_match",
	"service.searches_started", "service.coalesced", "service.nodes_expanded",
	"kcache.mem_hits", "kcache.disk_hits", "kcache.misses", "kcache.evictions", "kcache.put_errors",
	"universe.hits", "backend.member_starts",
}

// layerMetrics lists every per-layer metric of a traced run.
func layerMetrics() []metricName {
	var out []metricName
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricName{n, unit})
		}
	}
	add("ms", "tables.build_ms")
	add("ns", "state.apply_ns", "state.canon_ns", "state.hash_ns")
	for _, c := range classes {
		add("count", "enum.expanded."+c)
		add("1/s", "enum.expanded_per_s."+c)
		add("ratio", "enum.dedup_ratio."+c, "enum.prune_ratio."+c)
	}
	add("ratio", "enum.cut_ratio.first", "enum.w2_over_w1")
	add("count", "enum.solutions.enum", "enum.rerank_candidates", "enum.w1_w2_kernel_match")
	add("ms", "uarch.rank_ms", "verify.ms")
	add("us", "service.universe_p50_us", "service.cache_p50_us", "service.http_overhead_us")
	add("ms", "service.search_ms_p50", "service.wait_ms_p90", "service.batch_p50_ms")
	add("us", "service.verify_p50_us", "service.sortgen_p50_us")
	add("count", "service.searches_started", "service.coalesced", "service.nodes_expanded")
	add("count", "kcache.mem_hits", "kcache.disk_hits", "kcache.misses", "kcache.evictions", "kcache.put_errors")
	add("ns", "kcache.get_mem_ns", "kcache.key_hash_ns")
	add("us", "kcache.get_disk_us", "kcache.put_disk_us")
	add("count", "universe.hits")
	add("ns", "universe.lookup_ns")
	add("s", "universe.bake_s")
	add("ms", "backend.portfolio_ms_p50")
	add("count", "backend.member_starts")
	for _, d := range []string{"random", "sorted", "reversed", "dups", "sawtooth"} {
		add("ns", "sortgen.hybrid_ns_per_elem."+d, "sortgen.stdlib_ns_per_elem."+d)
	}
	add("ns", "kernels.ns_per_call.n3", "kernels.ns_per_call.n4", "kernels.ns_per_call.n5")
	for _, l := range spanLayers {
		add("ms", "self_ms."+l)
	}
	for _, w := range workloads {
		add("%", "trace.overhead_pct."+w)
	}
	add("count", "counts.nonrepeating")
	add("ratio", "fail_ratio")
	return out
}

// runTraced is the per-layer run. It does a fixed amount of every
// workload's work, untraced once as the baseline for the tracing
// overhead and traced twice, so the counts can be compared.
func runTraced(ctx context.Context, cfg config, dir string, chk *checks, info map[string]any) (map[string]float64, error) {
	tr := newTracer()
	b, err := setup(ctx, cfg, dir, tr, chk)
	if err != nil {
		return nil, err
	}
	defer b.serve.close()
	m := map[string]float64{
		"tables.build_ms": float64(b.tablesDur) / 1e6,
		"universe.bake_s": b.serve.bakeDur.Seconds(),
	}
	var nonrepeating []string
	compare := func(a, b map[string]float64) {
		for _, k := range exactCounts {
			va, okA := a[k]
			vb, okB := b[k]
			if okA && okB && va != vb {
				nonrepeating = append(nonrepeating, fmt.Sprintf("%s: %v then %v", k, va, vb))
			}
		}
	}

	// Synthesis.
	var op int64
	base := runSynthPass(ctx, b.specs, rand.New(rand.NewSource(cfg.seed)), nil, nil, 0, &op, chk)
	var passes [2]synthPass
	var counts [2]map[string]float64
	for i := range passes {
		root := tr.begin("bench.pass", 0, op)
		passes[i] = runSynthPass(ctx, b.specs, rand.New(rand.NewSource(cfg.seed)), nil, tr, root.id(), &op, chk)
		root.end()
		counts[i] = enumLayer(passes[i])
	}
	compare(counts[0], counts[1])
	for k, v := range counts[0] {
		m[k] = v
	}
	m["verify.ms"] = float64(passes[0].VerifyDur) / 1e6
	m["trace.overhead_pct."+wSynth] = overheadPct(passTotal(passes[0]), passTotal(base))
	for _, r := range passes[0].Runs {
		if r.Spec.Name == "cmov3-all" {
			if m["uarch.rank_ms"], err = rankProbe(r.Spec.set(), r.Res.Programs, tr); err != nil {
				return nil, err
			}
		}
	}

	// Serving: the stream prefix on a fresh server, untraced once, then
	// traced twice with /metrics deltas around each replay.
	reqs := b.serve.gen.prefix(replayRequests)
	var serveWall [3]time.Duration
	var deltas [2]map[string]float64
	var traced *serveSamples
	for i := range serveWall {
		t := tr
		if i == 0 {
			t = nil
		}
		s, err := b.serve.start(ctx, t, 1)
		if err != nil {
			return nil, err
		}
		ss := newServeSamples()
		before, err := s.metrics(ctx)
		if err == nil {
			serveWall[i] = s.replay(ctx, reqs, int64(i+1)*1_000_000, ss, chk)
			var after metricsSnap
			if after, err = s.metrics(ctx); err == nil && i > 0 {
				deltas[i-1] = countDeltas(before, after, ss)
			}
		}
		s.close()
		if err != nil {
			return nil, err
		}
		if i == 1 {
			traced = ss
		}
	}
	compare(deltas[0], deltas[1])
	for k, v := range deltas[0] {
		m[k] = v
	}
	m["trace.overhead_pct."+wServe] = overheadPct(serveWall[1], serveWall[0])
	for name, q := range map[string]struct {
		xs    []float64
		p     float64
		scale float64
	}{
		"service.universe_p50_us":  {traced.uniServedUS, 50, 1},
		"service.cache_p50_us":     {traced.cacheServedUS, 50, 1},
		"service.http_overhead_us": {traced.overheadUS, 50, 1},
		"service.search_ms_p50":    {traced.searchMS, 50, 1},
		"service.wait_ms_p90":      {traced.waitMS, 90, 1},
		"service.batch_p50_ms":     {traced.rttMS[kindBatch], 50, 1},
		"service.verify_p50_us":    {traced.rttMS[kindVerify], 50, 1000},
		"service.sortgen_p50_us":   {traced.rttMS[kindSortgen], 50, 1000},
		"backend.portfolio_ms_p50": {traced.portfolioMS, 50, 1},
	} {
		v, ok := percentile(q.xs, q.p)
		if !ok {
			chk.fail(fmt.Errorf("%s: %d samples do not support the percentile", name, len(q.xs)))
		}
		m[name] = v * q.scale
	}

	// Layer replays.
	keys, err := serveKeys(b.serve.bakedKeys)
	if err != nil {
		return nil, err
	}
	k3, _ := kernels.Lookup("enum", 3)
	kc, err := kcacheProbe(dir, keys, k3.Prog.Format(3), tr)
	chk.record(err)
	for k, v := range kc {
		m[k] = v
	}
	m["universe.lookup_ns"] = universeProbe(b.serve.store, b.serve.bakedKeys, tr)
	for k, v := range stateProbe(cfg.seed, tr) {
		m[k] = v
	}

	// Sorting: untraced rounds as the overhead baseline, then traced
	// rounds for the per-distribution and per-kernel numbers.
	var withSpans []sortRound
	var plainWall, spanWall time.Duration
	for i := 0; i < 2*traceRounds; i++ {
		t0 := time.Now()
		if i%2 == 0 {
			b.sorts.round(i%4 == 0, nil, int64(i), chk)
			plainWall += time.Since(t0)
		} else {
			withSpans = append(withSpans, b.sorts.round(i%4 == 1, tr, int64(i), chk))
			spanWall += time.Since(t0)
		}
	}
	_, sl := sortMetrics(withSpans)
	for k, v := range sl {
		m[k] = v
	}
	m["trace.overhead_pct."+wSortgen] = overheadPct(spanWall, plainWall)

	spans := tr.snapshot()
	self := selfTimes(spans)
	for _, l := range spanLayers {
		m["self_ms."+l] = self[l]
	}
	sort.Strings(nonrepeating)
	m["counts.nonrepeating"] = float64(len(nonrepeating))
	info["nonrepeating_counts"] = nonrepeating
	info["spans"] = len(spans)
	chk.mu.Lock()
	m["fail_ratio"] = float64(chk.failed) / float64(max(chk.attempted, 1))
	chk.mu.Unlock()

	path := filepath.Join(cfg.base, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path, info); err != nil {
		return nil, err
	}
	info["trace_file"] = path
	if len(nonrepeating) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: counts that did not repeat:", strings.Join(nonrepeating, "; "))
	}
	return m, ctx.Err()
}

// enumLayer reads a pass's enum.Result counters per class.
func enumLayer(p synthPass) map[string]float64 {
	m := make(map[string]float64)
	for _, c := range classes {
		var exp, gen, dedup, pruned, cut int64
		for _, r := range p.Runs {
			if r.Spec.Class != c {
				continue
			}
			exp += r.Res.Expanded
			gen += r.Res.Generated
			dedup += r.Res.Deduped
			pruned += r.Res.Pruned
			cut += r.Res.CutCount
			if c == classEnum {
				m["enum.solutions.enum"] += float64(r.Res.SolutionCount)
				if r.Res.RerankCandidates > 0 {
					m["enum.rerank_candidates"] += float64(r.Res.RerankCandidates)
				}
			}
		}
		m["enum.expanded."+c] = float64(exp)
		m["enum.expanded_per_s."+c] = float64(exp) / p.ClassWall[c].Seconds()
		m["enum.dedup_ratio."+c] = float64(dedup) / float64(gen)
		m["enum.prune_ratio."+c] = float64(pruned) / float64(gen)
		if c == classFirst {
			m["enum.cut_ratio.first"] = float64(cut) / float64(gen)
		}
	}
	match, ratio := w1w2Match(p)
	m["enum.w2_over_w1"] = ratio
	m["enum.w1_w2_kernel_match"] = 0
	if match {
		m["enum.w1_w2_kernel_match"] = 1
	}
	return m
}

func passTotal(p synthPass) time.Duration {
	var t time.Duration
	for _, d := range p.ClassWall {
		t += d
	}
	return t
}

func overheadPct(traced, plain time.Duration) float64 {
	return 100 * (float64(traced) - float64(plain)) / float64(plain)
}
