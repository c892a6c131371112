package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"sortsynth/internal/backend"
	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/kcache"
	"sortsynth/internal/universe"
)

// synthesizeRequest is the POST /v1/synthesize body.
type synthesizeRequest struct {
	ISA string `json:"isa"` // "cmov" (default) or "minmax"
	N   int    `json:"n"`
	M   *int   `json:"m"` // scratch registers; default 1

	// MaxLen bounds the program length; 0 means the known optimal length
	// for the set (an error if none is known). The enum backends search
	// a bound above the known optimal length at that length first, so
	// slack does not lengthen the kernel (backend.Enum).
	MaxLen int `json:"max_len"`

	// Backend selects the synthesizer from the backend registry:
	// "enum" (default), "smt", "cp", "ilp", "stoke", "mcts", "plan" or
	// "portfolio". Unknown names are a 400. The name participates in
	// the cache key, so different backends never share an artifact.
	Backend string `json:"backend"`

	// Seed seeds the randomized backends (stoke, mcts). "portfolio"
	// accepts it and keeps it in the cache key, though its answer no
	// longer depends on it (backend.Seeded); other backends reject a
	// non-zero seed.
	Seed int64 `json:"seed"`

	// Config selects the search configuration: "best" (default, paper
	// config III), "base", "dijkstra" (the same search and key as
	// "base"), or "distmax" (admissible A*).
	// Only meaningful for the enum backend.
	Config string `json:"config"`

	DuplicateSafe bool `json:"duplicate_safe"`

	// Objective selects which member of the optimal-length solution set
	// comes back: "shortest" (default — the historical first pick),
	// "fastest" (minimum modeled throughput under the server's uarch
	// profile), or "balanced". Enum only; other backends reject it.
	Objective string `json:"objective"`

	// All enumerates every optimal kernel (ConfigAllSolutions);
	// MaxSolutions caps the materialized programs (default 10).
	All          bool `json:"all"`
	MaxSolutions int  `json:"max_solutions"`

	// TimeoutMS caps how long this request waits (0 = server default).
	// The search itself keeps running as long as any identical request
	// is still waiting on it.
	TimeoutMS int64 `json:"timeout_ms"`
}

// searchStats reports what a synthesis cost.
type searchStats struct {
	Expanded  int64   `json:"expanded"`
	Generated int64   `json:"generated"`
	SearchMS  float64 `json:"search_ms"` // the original search's wall time
	ServedMS  float64 `json:"served_ms"` // this request's wall time
}

// synthesizeResponse is the POST /v1/synthesize reply.
type synthesizeResponse struct {
	Kernel   string   `json:"kernel"`
	Programs []string `json:"programs,omitempty"`
	Length   int      `json:"length"`
	// Objective and Cost report the ranking objective of the kernel and
	// its primary uarch metric; both are omitted for shortest (the
	// historical reply shape).
	Objective     string  `json:"objective,omitempty"`
	Cost          float64 `json:"cost,omitempty"`
	SolutionCount int64   `json:"solution_count"`
	Backend       string  `json:"backend"`
	Cached        bool    `json:"cached"`
	Coalesced     bool    `json:"coalesced,omitempty"`
	// Source is the tier that answered: "universe" (baked L0),
	// "cache" (kcache L1/L2), or "search" (a live synthesis).
	Source string      `json:"source"`
	Key    string      `json:"key"`
	Stats  searchStats `json:"stats"`
}

// noKernelError reports an exhausted search: no kernel exists within the
// requested bound.
type noKernelError struct{ bound int }

func (e noKernelError) Error() string {
	return fmt.Sprintf("no kernel of length ≤ %d exists for this set", e.bound)
}

var errSearchTimeout = errors.New("search timed out")

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req synthesizeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	p, err := s.prepareSynthesize(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := s.resolveSynthesize(r.Context(), p, req.TimeoutMS, start)
	if err != nil {
		s.writeSearchError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSynthesizeGet serves GET /v1/synthesize?n=3[&objective=fastest...]:
// the query-parameter form of the POST body, for curl-friendly reads of
// what is almost always a cached artifact. Unknown parameters are a 400,
// mirroring the strict JSON decoding on the POST side.
func (s *Server) handleSynthesizeGet(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, err := synthesizeRequestFromQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p, err := s.prepareSynthesize(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := s.resolveSynthesize(r.Context(), p, req.TimeoutMS, start)
	if err != nil {
		s.writeSearchError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// synthesizeRequestFromQuery maps URL query parameters onto the POST
// body's fields (same names, same semantics).
func synthesizeRequestFromQuery(q url.Values) (*synthesizeRequest, error) {
	var req synthesizeRequest
	ints := map[string]*int{
		"n": &req.N, "max_len": &req.MaxLen, "max_solutions": &req.MaxSolutions,
	}
	bools := map[string]*bool{
		"duplicate_safe": &req.DuplicateSafe, "all": &req.All,
	}
	strs := map[string]*string{
		"isa": &req.ISA, "backend": &req.Backend,
		"config": &req.Config, "objective": &req.Objective,
	}
	for name, vals := range q {
		if len(vals) != 1 {
			return nil, fmt.Errorf("parameter %q given %d times", name, len(vals))
		}
		v := vals[0]
		var err error
		switch {
		case ints[name] != nil:
			*ints[name], err = strconv.Atoi(v)
		case bools[name] != nil:
			*bools[name], err = strconv.ParseBool(v)
		case strs[name] != nil:
			*strs[name] = v
		case name == "m":
			var m int
			if m, err = strconv.Atoi(v); err == nil {
				req.M = &m
			}
		case name == "seed":
			req.Seed, err = strconv.ParseInt(v, 10, 64)
		case name == "timeout_ms":
			req.TimeoutMS, err = strconv.ParseInt(v, 10, 64)
		default:
			return nil, fmt.Errorf("unknown parameter %q", name)
		}
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: %v", name, v, err)
		}
	}
	return &req, nil
}

// prepared is a validated synthesize request: the serving cache key and
// the flight function that computes the artifact on a full miss. All
// validation errors happen here (client errors, 400) so that resolution
// errors are purely search outcomes.
type prepared struct {
	key  kcache.Key
	hash string
	run  func(fctx context.Context) (*kcache.Entry, error)
}

// prepareSynthesize validates req and builds its cache key and flight.
func (s *Server) prepareSynthesize(req *synthesizeRequest) (prepared, error) {
	var p prepared
	m := 1
	if req.M != nil {
		m = *req.M
	}
	set, err := s.setFor(req.ISA, req.N, m)
	if err != nil {
		return p, err
	}
	beName := req.Backend
	if beName == "" {
		beName = "enum"
	}
	b, err := s.registry.Get(beName) // *backend.UnknownBackendError
	if err != nil {
		return p, err
	}

	// Every backend but enum takes the reduced Spec and runs as
	// registered. Enum keeps the full option surface (configs, all-
	// solutions enumeration) and runs as a backend.Enum under the
	// request's options, the adapter the registry registers. Both run
	// the same flight.
	var spec backend.Spec
	if beName == "enum" {
		opt, err := s.buildOptions(set, req)
		if err != nil {
			return p, err
		}
		p.key = kcache.KeyFor(set, opt)
		b = &backend.Enum{Opt: opt}
		spec = backend.Spec{MaxLen: opt.MaxLen, DuplicateSafe: opt.DuplicateSafe, Objective: opt.Objective}
	} else {
		if spec, err = s.buildSpec(set, beName, req); err != nil {
			return p, err
		}
		p.key = kcache.KeyForBackend(set, beName, spec.MaxLen, spec.Seed)
	}
	p.run = func(fctx context.Context) (*kcache.Entry, error) {
		return s.runFlight(fctx, p.key, set, b, spec)
	}
	p.hash = p.key.Hash()
	return p, nil
}

// resolveSynthesize answers a prepared request through the tiers in
// order: the baked universe (L0, lock-free, zero searches), the kcache
// memory/disk tiers (L1/L2), then a singleflight-coalesced live
// synthesis. Errors are search outcomes for writeSearchError.
func (s *Server) resolveSynthesize(ctx context.Context, p prepared, timeoutMS int64, start time.Time) (synthesizeResponse, error) {
	if s.universe != nil {
		if e, ok := s.universe.Lookup(p.key); ok {
			if e.NoKernel {
				// A baked refutation: the search that would prove it
				// again is exactly what the universe exists to avoid.
				s.metrics.universeNegatives.Add(1)
				return synthesizeResponse{}, noKernelError{bound: e.Length}
			}
			return responseFor(e, p.hash, sourceUniverse, false, start), nil
		}
	}

	if e, ok := s.cache.Get(p.key); ok {
		s.metrics.cacheHits.Add(1)
		return responseFor(e, p.hash, sourceCache, false, start), nil
	}
	s.metrics.cacheMisses.Add(1)

	// Bound this caller's wait; the flight itself runs under the group's
	// base context and its own SearchTimeout.
	if timeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
		defer cancel()
	}

	entry, shared, err := s.flights.Do(ctx, p.hash, p.run)
	if shared {
		s.metrics.coalesced.Add(1)
	}
	if err != nil {
		return synthesizeResponse{}, err
	}
	return responseFor(entry, p.hash, sourceSearch, shared, start), nil
}

// buildOptions maps the request onto the named enum configurations.
func (s *Server) buildOptions(set *isa.Set, req *synthesizeRequest) (enum.Options, error) {
	var opt enum.Options
	switch req.Config {
	case "", "best":
		opt = enum.ConfigBest()
	case "base", "dijkstra":
		// ConfigBase already runs in plain Dijkstra order; "dijkstra"
		// stays accepted as its historical alias, under the same key.
		opt = enum.ConfigBase()
	case "distmax":
		opt = enum.Options{Heuristic: enum.HeurDistMax, UseDistPrune: true}
	default:
		return opt, fmt.Errorf("unknown config %q (want best, base, dijkstra or distmax)", req.Config)
	}
	if req.All {
		opt = enum.ConfigAllSolutions()
		opt.MaxSolutions = 10
		if req.MaxSolutions > 0 {
			opt.MaxSolutions = min(req.MaxSolutions, 1000)
		}
	} else if req.MaxSolutions != 0 {
		return opt, errors.New("max_solutions requires \"all\": true")
	}
	obj, err := enum.ParseObjective(req.Objective)
	if err != nil {
		return opt, err
	}
	opt.Objective = obj
	opt.DuplicateSafe = req.DuplicateSafe
	opt.MaxLen, err = resolveMaxLen(set, req.MaxLen)
	return opt, err
}

// resolveMaxLen is the max_len rule every backend shares: 0 means the
// set's known optimal length, and a bound past the engine depth limit
// is rejected up front. The engine would return the same typed error,
// but this way it is a plain 400 before any flight is created.
func resolveMaxLen(set *isa.Set, maxLen int) (int, error) {
	if maxLen > enum.MaxDepth {
		return 0, fmt.Errorf("max_len %d exceeds the engine depth limit %d", maxLen, enum.MaxDepth)
	}
	if maxLen == 0 {
		l, ok := isa.KnownOptimalLength(set)
		if !ok {
			return 0, fmt.Errorf("no known optimal length for %s; pass max_len", set)
		}
		return l, nil
	}
	return maxLen, nil
}

// buildSpec maps the request onto a backend.Spec for the non-enum
// backends, rejecting the enum-only knobs up front.
func (s *Server) buildSpec(set *isa.Set, beName string, req *synthesizeRequest) (backend.Spec, error) {
	var spec backend.Spec
	if req.Config != "" {
		return spec, fmt.Errorf("config applies only to the enum backend (got backend %q)", beName)
	}
	if req.All || req.MaxSolutions != 0 {
		return spec, fmt.Errorf("all/max_solutions apply only to the enum backend (got backend %q)", beName)
	}
	if req.DuplicateSafe {
		return spec, fmt.Errorf("duplicate_safe applies only to the enum backend (got backend %q)", beName)
	}
	// Validate the objective spelling, then reject anything but shortest
	// up front: the backend would return the same typed error, but this
	// way it is a plain 400 before any flight is created.
	obj, err := enum.ParseObjective(req.Objective)
	if err != nil {
		return spec, err
	}
	if obj != enum.ObjectiveShortest {
		return spec, fmt.Errorf("objective %q applies only to the enum backend (backend %q synthesizes a single program)", obj, beName)
	}
	if spec.MaxLen, err = resolveMaxLen(set, req.MaxLen); err != nil {
		return spec, err
	}
	// A seed only changes the artifact for the randomized backends;
	// normalizing it to 0 elsewhere keeps the cache unfragmented.
	if backend.Seeded(beName) {
		spec.Seed = req.Seed
	} else if req.Seed != 0 {
		return spec, fmt.Errorf("seed applies only to the randomized backends (got backend %q)", beName)
	}
	return spec, nil
}

// runFlight executes one coalesced synthesis through backend.Run, the
// central verification choke point, under the bounded worker pool, and
// stores the artifact in the cache on success. No verification happens
// here, and nothing backend.Run rejects is cached.
func (s *Server) runFlight(ctx context.Context, key kcache.Key, set *isa.Set, b backend.Backend, spec backend.Spec) (*kcache.Entry, error) {
	// A caller that missed the cache just before an identical flight
	// cached its entry and left the group starts a fresh flight; answer
	// it from the cache rather than search the same key twice.
	if e, ok := s.cache.Get(key); ok {
		return e, nil
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()

	// The server-side wall cap is a serving-layer knob: it is not part
	// of the cache key, so it never fragments the artifact space.
	ctx, cancel := context.WithTimeout(ctx, s.cfg.SearchTimeout)
	defer cancel()

	s.metrics.searchesStarted.Add(1)
	s.metrics.inFlight.Add(1)
	bc := s.metrics.backendFor(b.Name())
	bc.started.Add(1)
	res, err := backend.Run(ctx, b, set, spec)
	s.metrics.inFlight.Add(-1)
	s.metrics.searchesCompleted.Add(1)
	bc.completed.Add(1)

	if err != nil {
		bc.errors.Add(1)
		return nil, err
	}
	bc.latency.observe(res.Stats.Elapsed)
	s.metrics.nodesExpanded.Add(res.Stats.Nodes)

	entry := universe.EntryFor(set, spec, res)
	switch {
	case entry != nil && entry.NoKernel:
		bc.noKernel.Add(1)
		return nil, noKernelError{bound: entry.Length}
	case entry != nil:
		bc.found.Add(1)
		entry.ElapsedNS = int64(res.Stats.Elapsed)
		if err := s.cache.Put(key, entry); err != nil {
			// A failed disk write only costs a future re-synthesis; the
			// entry is still served from memory and to this request.
			s.metrics.recordPutError(err)
		}
		return entry, nil
	case res.Status == backend.StatusCancelled:
		s.metrics.searchesCancelled.Add(1)
		bc.cancelled.Add(1)
		return nil, errShuttingDown
	case res.Status == backend.StatusTimedOut:
		s.metrics.searchesTimedOut.Add(1)
		bc.timedOut.Add(1)
		return nil, errSearchTimeout
	default: // a spent budget that proves nothing
		bc.noKernel.Add(1)
		return nil, budgetExhaustedError{backend: res.Backend, bound: spec.MaxLen}
	}
}

// budgetExhaustedError reports a backend that spent its search budget
// without finding a kernel or proving none exists — unlike
// noKernelError this is not a refutation.
type budgetExhaustedError struct {
	backend string
	bound   int
}

func (e budgetExhaustedError) Error() string {
	return fmt.Sprintf("backend %s exhausted its budget without a kernel of length ≤ %d (no refutation)", e.backend, e.bound)
}

// writeSearchError maps flight errors onto HTTP statuses.
func (s *Server) writeSearchError(w http.ResponseWriter, r *http.Request, err error) {
	status, msg := searchErrorStatus(r.Context(), err)
	writeError(w, status, "%s", msg)
}

// searchErrorStatus maps a resolution error onto an HTTP status and
// message. ctx is the caller's request (or batch item) context, used to
// distinguish a gone client from a search timeout.
func searchErrorStatus(ctx context.Context, err error) (int, string) {
	var noKernel noKernelError
	var budgetErr budgetExhaustedError
	var depthErr *enum.DepthLimitError
	var objErr *enum.UnknownObjectiveError
	var unsupErr *backend.UnsupportedObjectiveError
	switch {
	case errors.As(err, &depthErr):
		// Normally rejected in buildOptions before a flight starts; this
		// is the engine's own guard surfacing as a client error.
		return http.StatusBadRequest, err.Error()
	case errors.As(err, &objErr), errors.As(err, &unsupErr):
		// Same story: prepareSynthesize rejects these before a flight,
		// so hitting this arm means the engine-level guard fired.
		return http.StatusBadRequest, err.Error()
	case ctx.Err() != nil:
		// The client is gone; the status is for the log only.
		return http.StatusRequestTimeout, "client disconnected: " + err.Error()
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, errSearchTimeout):
		return http.StatusGatewayTimeout, errSearchTimeout.Error()
	case errors.Is(err, errShuttingDown), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, errShuttingDown.Error()
	case errors.As(err, &noKernel):
		return http.StatusUnprocessableEntity, err.Error()
	case errors.As(err, &budgetErr):
		return http.StatusUnprocessableEntity, err.Error()
	default:
		// Includes *backend.IncorrectError: a backend bug, never a
		// client error, so it surfaces as a 500.
		return http.StatusInternalServerError, err.Error()
	}
}

// Response sources, in tier order.
const (
	sourceUniverse = "universe"
	sourceCache    = "cache"
	sourceSearch   = "search"
)

func responseFor(e *kcache.Entry, hash, source string, coalesced bool, start time.Time) synthesizeResponse {
	be := e.Backend
	if be == "" {
		be = "enum" // entries written before the backend field
	}
	return synthesizeResponse{
		Kernel:        e.Program,
		Programs:      e.Programs,
		Length:        e.Length,
		Objective:     e.Objective,
		Cost:          e.Cost,
		SolutionCount: e.SolutionCount,
		Backend:       be,
		Cached:        source != sourceSearch,
		Coalesced:     coalesced,
		Source:        source,
		Key:           hash,
		Stats: searchStats{
			Expanded:  e.Expanded,
			Generated: e.Generated,
			SearchMS:  float64(e.ElapsedNS) / float64(time.Millisecond),
			ServedMS:  float64(time.Since(start)) / float64(time.Millisecond),
		},
	}
}
