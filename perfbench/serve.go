package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/kcache"
	"sortsynth/internal/kernels"
	"sortsynth/internal/service"
	"sortsynth/internal/sortgen"
	"sortsynth/internal/universe"
)

const (
	// cacheSize keeps the kcache memory tier far below the 48 specs
	// cached in setup, so most cache hits are served from disk.
	cacheSize = 16
	// Headers that carry the client span into the traced handler.
	hdrSpan = "X-Perfbench-Span"
	hdrOp   = "X-Perfbench-Op"
)

// bakeOptions is the mini universe: enum, both ISAs, n=2..3, budgets
// L*±2, duplicate-safe variants, shortest and fastest (80 specs).
func bakeOptions() universe.Options {
	return universe.Options{MaxN: 3, Backends: []string{"enum"}, DuplicateSafe: true}
}

// serveEnv is the serve-mix set-up shared by every server a run starts:
// the baked universe and what the client needs to check replies.
type serveEnv struct {
	dir       string
	uniPath   string
	store     *universe.Store // a second mount, for classification and Lookup replay
	baked     []synthBody     // specs the universe answers with a kernel
	bakedKeys []kcache.Key
	sortWant  map[sortKey]string
	gen       *streamGen
	bakeDur   time.Duration
}

type sortKey struct {
	n   int
	obj string
}

func newServeEnv(ctx context.Context, dir string, seed int64, tr *tracer, chk *checks) (*serveEnv, error) {
	e := &serveEnv{dir: dir, uniPath: filepath.Join(dir, "mini.ssuniv"), sortWant: make(map[sortKey]string)}
	sp := tr.begin("universe.Bake", 0, 0)
	t0 := time.Now()
	_, stats, err := universe.Bake(ctx, e.uniPath, nil, bakeOptions())
	e.bakeDur = time.Since(t0)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("bake: %w", err)
	}
	if stats.Failed+stats.Skipped > 0 {
		return nil, fmt.Errorf("bake: %d specs failed, %d skipped", stats.Failed, stats.Skipped)
	}
	if e.store, err = universe.Open(e.uniPath); err != nil {
		return nil, err
	}
	for _, spec := range universe.EnumerateSpecs(bakeOptions()) {
		key := spec.Key()
		ent, ok := e.store.Lookup(key)
		if !ok {
			e.store.Close()
			return nil, fmt.Errorf("bake: spec %s missing from the universe", spec)
		}
		if ent.NoKernel {
			continue
		}
		var obj string
		if spec.Objective != enum.ObjectiveShortest {
			obj = spec.Objective.String()
		}
		e.baked = append(e.baked, synthBody{ISA: spec.ISA, N: spec.N, MaxLen: spec.Budget, DuplicateSafe: spec.DuplicateSafe, Objective: obj})
		e.bakedKeys = append(e.bakedKeys, key)
	}

	// The sortgen replies are checked byte for byte against sources
	// composed here, and each composed sorter is checked against
	// slices.Sort.
	rng := rand.New(rand.NewSource(seed))
	sp = tr.begin("sortgen.ComposeObjective", 0, 0)
	for n := 2; n <= maxSortN; n++ {
		for _, obj := range []enum.Objective{enum.ObjectiveFastest, enum.ObjectiveShortest} {
			plan, err := sortgen.ComposeObjective(n, obj)
			if err != nil {
				sp.end()
				e.store.Close()
				return nil, err
			}
			src, err := plan.GoFile(sortgen.EmitOptions{Elem: "int"})
			if err != nil {
				sp.end()
				e.store.Close()
				return nil, err
			}
			e.sortWant[sortKey{n, obj.String()}] = src
			chk.record(checkSorter(plan.Sorter(), n, rng))
		}
	}
	sp.end()

	var cs []contender
	for n := 3; n <= 5; n++ {
		for _, k := range kernels.Contenders(n) {
			if k.Prog != nil {
				name := "cmov"
				if k.Set.Kind == isa.KindMinMax {
					name = "minmax"
				}
				cs = append(cs, contender{isa: name, n: n, prog: k.Prog})
			}
		}
	}
	e.gen = newStreamGen(seed, e.baked, verifyPool(cs))
	return e, nil
}

func (e *serveEnv) close() { e.store.Close() }

// checkSorter compares a fixed-n sorter with slices.Sort on every input
// distribution.
func checkSorter(sorter func([]int), n int, rng *rand.Rand) error {
	for _, d := range sortgen.Distributions() {
		for t := 0; t < 3; t++ {
			in := d.Gen(rng, n)
			got, want := slices.Clone(in), slices.Clone(in)
			sorter(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				return fmt.Errorf("sortgen n=%d sorter on %s input %v gave %v", n, d.Name, in, got)
			}
		}
	}
	return nil
}

// server is one sortsynthd instance with its default Config apart from
// the cache directory, the LRU size and the mounted universe, served on
// loopback.
type server struct {
	env    *serveEnv
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	tr     *tracer
}

// start launches a server with a fresh cache directory and caches the
// warm specs through it.
func (e *serveEnv) start(ctx context.Context, tr *tracer, clients int) (*server, error) {
	cacheDir, err := os.MkdirTemp(e.dir, "kcache-")
	if err != nil {
		return nil, err
	}
	sp := tr.begin("service.New", 0, 0)
	srv, err := service.New(service.Config{CacheDir: cacheDir, CacheSize: cacheSize, UniversePath: e.uniPath})
	sp.end()
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	if tr != nil {
		h = traceHandler(srv, tr)
	}
	s := &server{
		env: e,
		srv: srv,
		ts:  httptest.NewServer(h),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients},
			Timeout:   2 * time.Minute,
		},
		tr: tr,
	}
	for i, body := range warmSpecs() {
		b := body
		if _, err := s.do(ctx, request{Kind: kindCache, Synth: &b}, -int64(i+1)); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

// traceHandler records a span around each request the server handles,
// parented to the client's span.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		sp := tr.begin("service."+r.URL.Path, parent, op)
		h.ServeHTTP(w, r)
		sp.end()
	})
}

// outcome is one answered request.
type outcome struct {
	kind     string
	rtt      time.Duration
	source   string // synthesize replies: universe, cache or search
	servedMS float64
	searchMS float64
	expanded int64
}

func (r request) httpRequest(ctx context.Context, base string) (*http.Request, error) {
	post := func(path string, v any) (*http.Request, error) {
		blob, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		return http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(blob))
	}
	switch r.Kind {
	case kindBatch:
		return post("/v1/synthesize/batch", map[string]any{"specs": r.Batch})
	case kindVerify:
		return post("/v1/verify", r.Verify)
	case kindSortgen:
		q := url.Values{"n": {strconv.Itoa(r.SortN)}, "objective": {r.SortObj}}
		return http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/sortgen?"+q.Encode(), nil)
	default:
		return post("/v1/synthesize", r.Synth)
	}
}

// do sends one request, times the round trip, and checks the reply. Any
// error is a failed operation.
func (s *server) do(ctx context.Context, r request, op int64) (outcome, error) {
	out := outcome{kind: r.Kind}
	req, err := r.httpRequest(ctx, s.ts.URL)
	if err != nil {
		return out, err
	}
	sp := s.tr.begin("bench.http."+r.Kind, 0, op)
	if s.tr != nil {
		req.Header.Set(hdrSpan, strconv.FormatInt(sp.id(), 10))
		req.Header.Set(hdrOp, strconv.FormatInt(op, 10))
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		sp.end()
		return out, err
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.rtt = time.Since(t0)
	sp.end()
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s %s: status %d: %.200s", req.Method, req.URL.Path, resp.StatusCode, blob)
	}
	return out, s.checkReply(r, blob, &out)
}

// synthReply is the part of a /v1/synthesize reply the client checks.
type synthReply struct {
	Kernel   string   `json:"kernel"`
	Programs []string `json:"programs"`
	Length   int      `json:"length"`
	Source   string   `json:"source"`
	Stats    struct {
		Expanded int64   `json:"expanded"`
		SearchMS float64 `json:"search_ms"`
		ServedMS float64 `json:"served_ms"`
	} `json:"stats"`
}

func (s *server) checkReply(r request, blob []byte, out *outcome) error {
	switch r.Kind {
	case kindBatch:
		var rep struct {
			Results []struct {
				OK       bool        `json:"ok"`
				Error    string      `json:"error"`
				Response *synthReply `json:"response"`
			} `json:"results"`
		}
		if err := json.Unmarshal(blob, &rep); err != nil {
			return fmt.Errorf("batch reply: %w", err)
		}
		if len(rep.Results) != len(r.Batch) {
			return fmt.Errorf("batch: %d results for %d specs", len(rep.Results), len(r.Batch))
		}
		for i, it := range rep.Results {
			if !it.OK || it.Response == nil {
				return fmt.Errorf("batch item %d: %s", i, it.Error)
			}
			if err := checkSynthReply(r.Batch[i], *it.Response); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return nil
	case kindVerify:
		var rep struct {
			Correct       bool `json:"correct"`
			DuplicateSafe bool `json:"duplicate_safe"`
		}
		if err := json.Unmarshal(blob, &rep); err != nil {
			return fmt.Errorf("verify reply: %w", err)
		}
		if rep.Correct != r.Verify.WantCorrect || rep.DuplicateSafe != r.Verify.WantDupSafe {
			return fmt.Errorf("verify %q: correct=%v duplicate_safe=%v, want %v %v", r.Verify.Program,
				rep.Correct, rep.DuplicateSafe, r.Verify.WantCorrect, r.Verify.WantDupSafe)
		}
		return nil
	case kindSortgen:
		var rep struct {
			N      int    `json:"n"`
			Source string `json:"source"`
		}
		if err := json.Unmarshal(blob, &rep); err != nil {
			return fmt.Errorf("sortgen reply: %w", err)
		}
		if rep.N != r.SortN || rep.Source != s.env.sortWant[sortKey{r.SortN, r.SortObj}] {
			return fmt.Errorf("sortgen n=%d %s: source differs from the composed sorter", r.SortN, r.SortObj)
		}
		return nil
	default:
		var rep synthReply
		if err := json.Unmarshal(blob, &rep); err != nil {
			return fmt.Errorf("synthesize reply: %w", err)
		}
		out.source, out.servedMS, out.searchMS, out.expanded = rep.Source, rep.Stats.ServedMS, rep.Stats.SearchMS, rep.Stats.Expanded
		return checkSynthReply(*r.Synth, rep)
	}
}

// checkSynthReply re-parses the served kernel and re-verifies it with
// the benchmark's own checker.
func checkSynthReply(body synthBody, rep synthReply) error {
	check := func(text string) error {
		p, err := isa.ParseProgram(text, body.N)
		switch {
		case err != nil:
			return err
		case len(p) == 0 || len(p) != rep.Length:
			return fmt.Errorf("kernel of %d instructions, reply says %d", len(p), rep.Length)
		case body.MaxLen > 0 && len(p) > body.MaxLen:
			return fmt.Errorf("kernel of %d instructions exceeds max_len %d", len(p), body.MaxLen)
		case !sortsAll(body.N, 1, p, body.DuplicateSafe):
			return fmt.Errorf("served kernel %q does not sort (duplicate_safe=%v)", text, body.DuplicateSafe)
		}
		return nil
	}
	if err := check(rep.Kernel); err != nil {
		return err
	}
	if body.All {
		if len(rep.Programs) == 0 || len(rep.Programs) > body.MaxSolutions {
			return fmt.Errorf("%d programs for max_solutions %d", len(rep.Programs), body.MaxSolutions)
		}
		for _, p := range rep.Programs {
			if err := check(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// serveSamples collects one phase's latencies, split by answer source.
type serveSamples struct {
	mu     sync.Mutex
	done   int
	hitUS  []float64 // client round trip of universe and cache answers
	missMS []float64 // client round trip of live searches
	// Server-side splits, used by the traced replay.
	uniServedUS, cacheServedUS, overheadUS []float64
	searchMS, waitMS, portfolioMS          []float64
	rttMS                                  map[string][]float64 // batch, verify, sortgen
	// portfolioNodes sums the search effort the portfolio races report;
	// which member wins a race, and so the count, varies run to run.
	portfolioNodes int64
}

func newServeSamples() *serveSamples { return &serveSamples{rttMS: make(map[string][]float64)} }

func (ss *serveSamples) add(o outcome, err error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.done++
	if err != nil {
		return
	}
	rttMS := float64(o.rtt) / 1e6
	switch o.kind {
	case kindBatch, kindVerify, kindSortgen:
		ss.rttMS[o.kind] = append(ss.rttMS[o.kind], rttMS)
		return
	}
	switch o.source {
	case "universe", "cache":
		ss.hitUS = append(ss.hitUS, rttMS*1000)
		ss.overheadUS = append(ss.overheadUS, (rttMS-o.servedMS)*1000)
		if o.source == "universe" {
			ss.uniServedUS = append(ss.uniServedUS, o.servedMS*1000)
		} else {
			ss.cacheServedUS = append(ss.cacheServedUS, o.servedMS*1000)
		}
	case "search":
		ss.missMS = append(ss.missMS, rttMS)
		if o.kind == kindPortfolio {
			ss.portfolioMS = append(ss.portfolioMS, o.searchMS)
			ss.portfolioNodes += o.expanded
		} else {
			ss.searchMS = append(ss.searchMS, o.searchMS)
		}
		ss.waitMS = append(ss.waitMS, max(0, o.servedMS-o.searchMS))
	}
}

// segment is how long the clients run between two yardstick readings.
const segment = 250 * time.Millisecond

// closedLoop runs clients that each send the stream's next request as
// soon as their previous one is answered, until stop says so. The load
// runs in segments: between two, the clients pause until every request
// has been answered and the yardstick is read. It returns the time the
// segments took.
func (s *server) closedLoop(ctx context.Context, cur *cursor, clients int, ss *serveSamples, chk *checks, yard *yardstick, stop func(ss *serveSamples, elapsed time.Duration) bool) time.Duration {
	start := time.Now()
	var busy time.Duration
	for halted := false; !halted && ctx.Err() == nil; {
		yard.read(2)
		segStart := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					ss.mu.Lock()
					halted = halted || stop(ss, time.Since(start))
					pause := halted || time.Since(segStart) >= segment
					ss.mu.Unlock()
					if pause {
						return
					}
					r, op := cur.take()
					o, err := s.do(ctx, r, op)
					chk.record(err)
					ss.add(o, err)
				}
			}()
		}
		wg.Wait()
		busy += time.Since(segStart)
	}
	return busy
}

// replay sends reqs one at a time, except that a coalescing pair is sent
// concurrently, so the counters it moves are the same on every replay.
func (s *server) replay(ctx context.Context, reqs []request, opBase int64, ss *serveSamples, chk *checks) time.Duration {
	start := time.Now()
	for i := 0; i < len(reqs); i++ {
		if reqs[i].Pair && i+1 < len(reqs) {
			var wg sync.WaitGroup
			for k := 0; k < 2; k++ {
				wg.Add(1)
				go func(r request, op int64) {
					defer wg.Done()
					o, err := s.do(ctx, r, op)
					chk.record(err)
					ss.add(o, err)
				}(reqs[i+k], opBase+int64(i+k))
			}
			wg.Wait()
			i++
			continue
		}
		o, err := s.do(ctx, reqs[i], opBase+int64(i))
		chk.record(err)
		ss.add(o, err)
	}
	return time.Since(start)
}

// metricsSnap is the part of /metrics the per-layer counts come from.
type metricsSnap struct {
	Cache struct {
		Misses    int64 `json:"misses"`
		MemHits   int64 `json:"mem_hits"`
		DiskHits  int64 `json:"disk_hits"`
		Evictions int64 `json:"evictions"`
		PutErrors int64 `json:"put_errors"`
	} `json:"cache"`
	Universe struct {
		Hits int64 `json:"hits"`
	} `json:"universe"`
	Searches struct {
		Started       int64 `json:"started"`
		Coalesced     int64 `json:"coalesced"`
		NodesExpanded int64 `json:"nodes_expanded"`
	} `json:"searches"`
	Backends map[string]struct {
		Started int64 `json:"started"`
	} `json:"backends"`
}

func (s *server) metrics(ctx context.Context) (metricsSnap, error) {
	var m metricsSnap
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, errors.New("/metrics: status " + resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// countDeltas returns how far the /metrics counters moved between two
// snapshots around a replay. service.nodes_expanded leaves out the
// portfolio races, whose winner is a race, so that it repeats exactly.
func countDeltas(a, b metricsSnap, ss *serveSamples) map[string]float64 {
	starts := func(m metricsSnap) (n int64) {
		for _, be := range m.Backends {
			n += be.Started
		}
		return n
	}
	return map[string]float64{
		"service.searches_started": float64(b.Searches.Started - a.Searches.Started),
		"service.coalesced":        float64(b.Searches.Coalesced - a.Searches.Coalesced),
		"service.nodes_expanded":   float64(b.Searches.NodesExpanded - a.Searches.NodesExpanded - ss.portfolioNodes),
		"kcache.mem_hits":          float64(b.Cache.MemHits - a.Cache.MemHits),
		"kcache.disk_hits":         float64(b.Cache.DiskHits - a.Cache.DiskHits),
		"kcache.misses":            float64(b.Cache.Misses - a.Cache.Misses),
		"kcache.evictions":         float64(b.Cache.Evictions - a.Cache.Evictions),
		"kcache.put_errors":        float64(b.Cache.PutErrors - a.Cache.PutErrors),
		"universe.hits":            float64(b.Universe.Hits - a.Universe.Hits),
		"backend.member_starts":    float64(starts(b) - starts(a)),
	}
}
