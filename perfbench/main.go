// Command perfbench is sortsynth's benchmark: it runs one seeded
// workload against the program's Go API and an in-process sortsynthd,
// checks every output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of standard output.
//
// Run it through perfbench/run.sh from the repository root:
//
//	bash perfbench/run.sh --workload synth-cold --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	wSynth   = "synth-cold"
	wServe   = "serve-mix"
	wSortgen = "sortgen-run"
)

var workloads = []string{wSynth, wServe, wSortgen}

// probeSamples is the fewest timed passes a synthesis class gets in every
// run. The proof class takes about 0.6 s a pass, so it can afford the
// most samples: over two passes, the quartile distance of its median
// across runs reached 29% of the median.
var probeSamples = map[string]int{classFirst: 3, classEnum: 3, classProof: 7}

const (
	// clients is the number of closed-loop serve-mix clients; the host
	// the benchmark was sized on has two vCPUs.
	clients = 2
	// setupSamples is how many cold set-ups a run times: the run's own
	// and setupSamples-1 in child processes, whose tables and universe
	// start cold too.
	setupSamples = 3
	// Fixed amounts of the other workloads' work each run also does, so
	// that every run reports every end-to-end metric.
	probeRequests = 6_000
	probeRounds   = 40
	// maxRun stops a run that has hung long before the 180 s limit.
	maxRun = 170 * time.Second
	// replayRequests is the stream prefix the traced run replays; it
	// holds enough misses to report service.wait_ms_p90.
	replayRequests = 2_000
	traceRounds    = 8
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	base     string // scratch directory inside the checkout
}

// checks counts verified operations and failures across goroutines.
type checks struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

func (c *checks) record(err error) {
	if err != nil {
		c.fail(err)
	} else {
		c.ok()
	}
}

func (c *checks) ok() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

func (c *checks) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.failed++
	if len(c.errs) < 10 {
		c.errs = append(c.errs, err.Error())
	}
}

// bench is what set-up builds: the warmed tables, the synthesis specs,
// the serve-mix environment and the sort corpus.
type bench struct {
	specs     []synthSpec
	serve     *serveEnv
	sorts     *sortInputs
	tablesDur time.Duration
}

func setup(ctx context.Context, cfg config, dir string, tr *tracer, chk *checks) (*bench, error) {
	b := &bench{specs: synthSpecs()}
	b.tablesDur = warmTables(tr)
	var err error
	if b.serve, err = newServeEnv(ctx, dir, cfg.seed, tr, chk); err != nil {
		return nil, err
	}
	if b.sorts, err = newSortInputs(cfg.seed); err != nil {
		b.serve.close()
		return nil, err
	}
	return b, nil
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "how long the workload is measured")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead")
	setupOnly := flag.Bool("setup-only", false, "time one cold set-up and exit (used by the run itself)")
	flag.Parse()

	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), base: os.Getenv("PERFBENCH_DIR")}
	if cfg.base == "" {
		cfg.base = filepath.Join(".bench_build", "perfbench")
	}
	if !*setupOnly && !slices.Contains(workloads, cfg.workload) || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds > 0, --trace 0|1\n", strings.Join(workloads, "|"))
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, maxRun)
	err := run(ctx, cfg, *trace == 1, *setupOnly)
	cancel()
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config, traced, setupOnly bool) error {
	if err := os.MkdirAll(cfg.base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	if setupOnly {
		d, err := timedSetup(ctx, cfg, dir, &checks{}, func(b *bench, s *server) {
			s.close()
			b.serve.close()
		})
		if err == nil {
			fmt.Println(d)
		}
		return err
	}

	info := runInfo(cfg, traced)
	chk := &checks{}
	var metrics map[string]float64
	if traced {
		metrics, err = runTraced(ctx, cfg, dir, chk, info)
	} else {
		metrics, err = runMeasured(ctx, cfg, dir, chk, info)
	}
	if err != nil {
		return err
	}
	return report(metrics, traced, chk, info)
}

// runInfo is the run's context, printed with every result.
func runInfo(cfg config, traced bool) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// timedSetup runs a cold set-up, starts the measured server, and returns
// the scaled set-up time in seconds; keep receives what was built.
func timedSetup(ctx context.Context, cfg config, dir string, chk *checks, keep func(*bench, *server)) (float64, error) {
	y := newYardstick()
	y.read(15)
	f := y.factor()
	t0 := time.Now()
	b, err := setup(ctx, cfg, dir, nil, chk)
	if err != nil {
		return 0, err
	}
	s, err := b.serve.start(ctx, nil, clients)
	if err != nil {
		b.serve.close()
		return 0, err
	}
	d := scale(time.Since(t0), f).Seconds()
	keep(b, s)
	return d, nil
}

// runMeasured is an untraced run: cold set-up timing, the workload for
// cfg.seconds, then a fixed probe of the other two workloads.
func runMeasured(ctx context.Context, cfg config, dir string, chk *checks, info map[string]any) (map[string]float64, error) {
	var setups []float64
	for i := 1; i < setupSamples; i++ {
		s, err := childSetup(ctx, cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	var b *bench
	var srv *server
	own, err := timedSetup(ctx, cfg, dir, chk, func(bb *bench, s *server) { b, srv = bb, s })
	if err != nil {
		return nil, err
	}
	defer b.serve.close()
	defer srv.close()
	setups = append(setups, own)

	m := map[string]float64{"setup_s": median(setups)}
	samples := map[string]any{"setup": setups}
	factors := map[string]float64{}
	yard := newYardstick()
	home := cfg.workload

	// Synthesis: one pass per iteration, timed per class. A class runs
	// until it has probeSamples samples and, on synth-cold, until the
	// workload's time is up; a pass holds only the classes still running.
	settle()
	rng := rand.New(rand.NewSource(cfg.seed))
	walls := make(map[string][]float64)
	var op int64
	start := time.Now()
	for ctx.Err() == nil {
		var specs []synthSpec
		for _, sp := range b.specs {
			if len(walls[sp.Class]) < probeSamples[sp.Class] || home == wSynth && time.Since(start) < cfg.seconds {
				specs = append(specs, sp)
			}
		}
		if len(specs) == 0 {
			break
		}
		p := runSynthPass(ctx, specs, rng, yard, nil, 0, &op, chk)
		for c, d := range p.ClassWall {
			walls[c] = append(walls[c], d.Seconds())
		}
	}
	f := yard.factor()
	factors["synth"] = f
	for _, c := range classes {
		m["synth_"+c+"_s"] = median(walls[c]) * f
	}
	samples["synth_walls_s"] = walls

	// Serving: two closed-loop clients on the seeded stream.
	settle()
	ss := newServeSamples()
	enough := func(ss *serveSamples) bool {
		return len(ss.hitUS) >= minSamples(99.9) && len(ss.missMS) >= minSamples(99)
	}
	wall := srv.closedLoop(ctx, &cursor{gen: b.serve.gen}, clients, ss, chk, yard, func(ss *serveSamples, el time.Duration) bool {
		if home == wServe {
			return el >= cfg.seconds && enough(ss)
		}
		return ss.done >= probeRequests && enough(ss)
	})
	f = yard.factor()
	factors["serve"] = f
	m["serve_rps"] = float64(ss.done) / (wall.Seconds() * f)
	for _, q := range []struct {
		name string
		xs   []float64
		p    float64
	}{{"hit_p50_us", ss.hitUS, 50}, {"hit_p90_us", ss.hitUS, 90}, {"miss_p50_ms", ss.missMS, 50}, {"miss_p90_ms", ss.missMS, 90}} {
		v, ok := percentile(q.xs, q.p)
		if !ok {
			chk.fail(fmt.Errorf("%s: %d samples do not support the percentile", q.name, len(q.xs)))
		}
		m[q.name] = v * f
	}
	samples["requests"], samples["hits"], samples["misses"] = ss.done, len(ss.hitUS), len(ss.missMS)
	tail := map[string]float64{}
	for _, p := range []float64{90, 95, 99, 99.9} {
		tail[fmt.Sprintf("hit_p%v_us", p)], _ = percentile(ss.hitUS, p)
		tail[fmt.Sprintf("miss_p%v_ms", p)], _ = percentile(ss.missMS, p)
	}
	samples["raw_tails"] = tail

	// Generated sorters and kernels.
	settle()
	var rounds []sortRound
	start = time.Now()
	for n := 0; ctx.Err() == nil && (n < probeRounds || home == wSortgen && time.Since(start) < cfg.seconds); n++ {
		yard.read(1)
		rounds = append(rounds, b.sorts.round(n%2 == 0, nil, int64(n), chk))
	}
	f = yard.factor()
	factors["sortgen"] = f
	e2e, _ := sortMetrics(rounds)
	m["sort_ns_per_elem"] = e2e["sort_ns_per_elem"] * f
	m["sort_vs_stdlib"] = e2e["sort_vs_stdlib"]
	// The kernel loops (5 ns calls) drift by up to 1.7× between runs,
	// more than any bound allows, so their time is context, not a metric.
	samples["kernel_ns_per_call"] = e2e["kernel_ns_per_call"] * f
	samples["sort_rounds"] = len(rounds)

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m["peak_rss_mb"] = rss
	info["samples"] = samples
	info["yardstick_factors"] = factors
	return m, ctx.Err()
}

// settle collects the garbage the previous phase left, so that one
// phase's heap does not tax the next one's timings.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// childSetup times one cold set-up in a fresh process.
func childSetup(ctx context.Context, cfg config) (float64, error) {
	cmd := exec.CommandContext(ctx, os.Args[0], "--setup-only", "--seed", strconv.FormatInt(cfg.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// peakRSSMB returns the process's high-water resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// report prints the run's context, then the result line.
func report(metrics map[string]float64, traced bool, chk *checks, info map[string]any) error {
	names := e2eMetrics
	if traced {
		names = layerMetrics()
	}
	out := make(map[string]any, len(names))
	for _, n := range names {
		v, ok := metrics[n.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			chk.fail(fmt.Errorf("metric %s has no value", n.name))
			v = 0
		}
		out[n.name] = map[string]any{"value": v, "unit": n.unit}
	}
	info["errors"] = chk.errs
	blob, err := json.Marshal(info)
	if err != nil {
		return err
	}
	fmt.Println("# perfbench", string(blob))
	blob, err = json.Marshal(map[string]any{
		"correct":   chk.failed == 0,
		"attempted": chk.attempted,
		"failed":    chk.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

type metricName struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every untraced run reports.
var e2eMetrics = []metricName{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"synth_first_s", "s"},
	{"synth_enum_s", "s"},
	{"synth_proof_s", "s"},
	{"serve_rps", "1/s"},
	{"hit_p50_us", "us"},
	{"hit_p90_us", "us"},
	{"miss_p50_ms", "ms"},
	{"miss_p90_ms", "ms"},
	{"sort_ns_per_elem", "ns"},
	{"sort_vs_stdlib", "ratio"},
}
