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
)

// synthesizeRequest is the POST /v1/synthesize body.
type synthesizeRequest struct {
	ISA string `json:"isa"` // "cmov" (default) or "minmax"
	N   int    `json:"n"`
	M   *int   `json:"m"` // scratch registers; default 1

	// MaxLen bounds the program length; 0 means the known optimal length
	// for the set (an error if none is known).
	MaxLen int `json:"max_len"`

	// Backend selects the synthesizer from the backend registry:
	// "enum" (default), "smt", "cp", "ilp", "stoke", "mcts", "plan" or
	// "portfolio". Unknown names are a 400. The name participates in
	// the cache key, so different backends never share an artifact.
	Backend string `json:"backend"`

	// Seed seeds the randomized backends (stoke, mcts). "portfolio"
	// accepts it and keeps it in the cache key, though its answer no
	// longer depends on it; other backends reject a non-zero seed.
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
	if !s.registry.Has(beName) {
		_, err := s.registry.Get(beName) // *backend.UnknownBackendError
		return p, err
	}

	// The enum backend keeps the full option surface (configs, all-
	// solutions enumeration); every other backend takes the reduced
	// Spec and runs through the registry.
	if beName == "enum" {
		opt, err := s.buildOptions(set, req)
		if err != nil {
			return p, err
		}
		p.key = kcache.KeyFor(set, opt)
		p.run = func(fctx context.Context) (*kcache.Entry, error) {
			return s.runSearch(fctx, p.key, set, opt)
		}
	} else {
		spec, err := s.buildSpec(set, beName, req)
		if err != nil {
			return p, err
		}
		p.key = kcache.KeyForBackend(set, beName, spec.MaxLen, spec.Seed, spec.DuplicateSafe)
		p.run = func(fctx context.Context) (*kcache.Entry, error) {
			return s.runBackend(fctx, p.key, set, beName, spec)
		}
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
	// The profile is a server-wide deployment knob (the hardware the
	// fleet ranks for), not a per-request one: per-request profiles would
	// fragment the cache by client whim.
	opt.Profile = s.cfg.UarchProfile
	opt.DuplicateSafe = req.DuplicateSafe
	opt.MaxLen = req.MaxLen
	if opt.MaxLen > enum.MaxDepth {
		// Reject up front: the engine would return the same typed error,
		// but this way it is a plain 400 before any flight is created.
		return opt, fmt.Errorf("max_len %d exceeds the engine depth limit %d", req.MaxLen, enum.MaxDepth)
	}
	if opt.MaxLen == 0 {
		l, ok := isa.KnownOptimalLength(set)
		if !ok {
			return opt, fmt.Errorf("no known optimal length for %s; pass max_len", set)
		}
		opt.MaxLen = l
	}
	return opt, nil
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
	spec.MaxLen = req.MaxLen
	if spec.MaxLen > enum.MaxDepth {
		return spec, fmt.Errorf("max_len %d exceeds the engine depth limit %d", req.MaxLen, enum.MaxDepth)
	}
	if spec.MaxLen == 0 {
		l, ok := isa.KnownOptimalLength(set)
		if !ok {
			return spec, fmt.Errorf("no known optimal length for %s; pass max_len", set)
		}
		spec.MaxLen = l
	}
	// A seed only changes the artifact for the randomized backends;
	// normalizing it to 0 elsewhere keeps the cache unfragmented.
	if randomizedBackend(beName) {
		spec.Seed = req.Seed
	} else if req.Seed != 0 {
		return spec, fmt.Errorf("seed applies only to the randomized backends (got backend %q)", beName)
	}
	return spec, nil
}

// randomizedBackend reports whether the seed is part of the backend's
// cache key. "portfolio" answers as deterministic enum now, but its
// seed stays in the key so existing keys hash byte-identically.
func randomizedBackend(name string) bool {
	switch name {
	case "stoke", "mcts", "portfolio":
		return true
	}
	return false
}

// runSearch executes one coalesced synthesis under the bounded worker
// pool and stores the artifact in the cache on success.
func (s *Server) runSearch(ctx context.Context, key kcache.Key, set *isa.Set, opt enum.Options) (*kcache.Entry, error) {
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
	bc := s.metrics.backendFor("enum")
	bc.started.Add(1)
	res := enum.RunContext(ctx, set, opt)
	s.metrics.inFlight.Add(-1)
	s.metrics.searchesCompleted.Add(1)
	s.metrics.nodesExpanded.Add(res.Expanded)
	bc.completed.Add(1)
	bc.latency.observe(res.Elapsed)

	switch {
	case res.Err != nil:
		bc.errors.Add(1)
		return nil, res.Err
	case res.Cancelled:
		s.metrics.searchesCancelled.Add(1)
		bc.cancelled.Add(1)
		return nil, errShuttingDown
	case res.TimedOut:
		s.metrics.searchesTimedOut.Add(1)
		bc.timedOut.Add(1)
		return nil, errSearchTimeout
	case res.Length < 0:
		bc.noKernel.Add(1)
		return nil, noKernelError{bound: opt.MaxLen}
	}
	bc.found.Add(1)

	var objName string
	if opt.Objective != enum.ObjectiveShortest {
		objName = opt.Objective.String()
	}
	entry := &kcache.Entry{
		Backend:       "enum",
		Objective:     objName,
		Cost:          res.Cost,
		Program:       res.Program.Format(set.N),
		Length:        res.Length,
		SolutionCount: res.SolutionCount,
		Expanded:      res.Expanded,
		Generated:     res.Generated,
		ElapsedNS:     int64(res.Elapsed),
	}
	for _, p := range res.Programs {
		entry.Programs = append(entry.Programs, p.Format(set.N))
	}
	if err := s.cache.Put(key, entry); err != nil {
		// A failed disk write only costs a future re-synthesis; the
		// entry is still served from memory and to this request.
		s.metrics.recordPutError(err)
	}
	return entry, nil
}

// runBackend executes one coalesced non-enum synthesis through the
// backend registry under the bounded worker pool. Correctness of a
// found program is checked centrally inside backend.Run — no
// verification happens here.
func (s *Server) runBackend(ctx context.Context, key kcache.Key, set *isa.Set, beName string, spec backend.Spec) (*kcache.Entry, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()

	// The registry engines bound their own budgets; the server-side
	// wall cap applies uniformly, as on the enum path.
	ctx, cancel := context.WithTimeout(ctx, s.cfg.SearchTimeout)
	defer cancel()

	s.metrics.searchesStarted.Add(1)
	s.metrics.inFlight.Add(1)
	bc := s.metrics.backendFor(beName)
	bc.started.Add(1)
	res, err := s.registry.Synthesize(ctx, beName, set, spec)
	s.metrics.inFlight.Add(-1)
	s.metrics.searchesCompleted.Add(1)
	bc.completed.Add(1)

	if err != nil {
		bc.errors.Add(1)
		return nil, err
	}
	bc.latency.observe(res.Stats.Elapsed)
	s.metrics.nodesExpanded.Add(res.Stats.Nodes)

	switch res.Status {
	case backend.StatusFound:
		// fall through to the entry below
	case backend.StatusCancelled:
		s.metrics.searchesCancelled.Add(1)
		bc.cancelled.Add(1)
		return nil, errShuttingDown
	case backend.StatusTimedOut:
		s.metrics.searchesTimedOut.Add(1)
		bc.timedOut.Add(1)
		return nil, errSearchTimeout
	case backend.StatusNoProgram:
		bc.noKernel.Add(1)
		return nil, noKernelError{bound: spec.MaxLen}
	default: // StatusExhausted
		bc.noKernel.Add(1)
		return nil, budgetExhaustedError{backend: beName, bound: spec.MaxLen}
	}
	bc.found.Add(1)

	entry := &kcache.Entry{
		Backend:       beName,
		Program:       res.Program.Format(set.N),
		Length:        res.Length,
		SolutionCount: 1,
		Expanded:      res.Stats.Nodes,
		Generated:     res.Stats.Generated,
		ElapsedNS:     int64(res.Stats.Elapsed),
	}
	if err := s.cache.Put(key, entry); err != nil {
		s.metrics.recordPutError(err) // memory tier still serves it; see runSearch
	}
	return entry, nil
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
	var profErr *enum.UnknownProfileError
	var unsupErr *backend.UnsupportedObjectiveError
	switch {
	case errors.As(err, &depthErr):
		// Normally rejected in buildOptions before a flight starts; this
		// is the engine's own guard surfacing as a client error.
		return http.StatusBadRequest, err.Error()
	case errors.As(err, &objErr), errors.As(err, &profErr), errors.As(err, &unsupErr):
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
