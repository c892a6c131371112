// Package service implements the sortsynthd HTTP JSON API: a serving
// layer over the enumerative synthesizer. For a given (isa, n, m,
// options) tuple the optimal kernel is a pure, deterministic artifact,
// so the service synthesizes it once — coalescing concurrent identical
// requests into a single search — and serves it from a two-tier
// content-addressed cache (kcache) forever after.
//
// Endpoints (stdlib net/http only):
//
//	POST /v1/synthesize        synthesize (or fetch) a kernel
//	POST /v1/synthesize/batch  many specs, one response each
//	GET  /v1/kernels     the §5.3 contender registry, filterable
//	GET  /v1/sortgen     a full generated sorter for fixed n (Go source)
//	POST /v1/verify      counterexample check + cost model for a program
//	GET  /metrics        expvar-style counters and latency histograms
//	GET  /healthz        liveness
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"sortsynth/internal/backend"
	"sortsynth/internal/isa"
	"sortsynth/internal/kcache"
	"sortsynth/internal/uarch"
	"sortsynth/internal/universe"
)

// Config tunes a Server. The zero value is usable: an in-memory-only
// cache and GOMAXPROCS concurrent searches.
type Config struct {
	// CacheDir is the on-disk kernel store ("" = memory-only).
	CacheDir string
	// CacheSize bounds the in-memory LRU tier (0 = 256).
	CacheSize int
	// MaxConcurrentSearches bounds the search worker pool
	// (0 = GOMAXPROCS). Requests beyond the bound queue.
	MaxConcurrentSearches int
	// SearchTimeout caps any single search's wall time (0 = 2m).
	SearchTimeout time.Duration
	// MaxN bounds the array length accepted by /v1/synthesize (0 = 5;
	// the packed state machine additionally requires n+m ≤ 7).
	MaxN int
	// MaxSortN bounds the array length accepted by /v1/sortgen (0 =
	// 256). Unlike MaxN this is a cost bound, not a state-machine
	// limit: composition is polynomial, but the emitted source grows
	// O(n log² n) comparators.
	MaxSortN int
	// UniversePath mounts a baked universe artifact (sortsynth-bake) as
	// the L0 tier: read-only, mmap-served, consulted before the kcache
	// tiers, so a replica answers every baked spec with zero searches
	// and zero warmup ("" = no universe).
	UniversePath string
	// MaxBatch bounds the spec list accepted by /v1/synthesize/batch
	// (0 = 32).
	MaxBatch int
	// UarchProfile names the uarch profile objective rankings run under
	// ("" = the default big out-of-order core; see internal/uarch).
	// Deployment-wide: the profile describes the hardware the fleet
	// serves, so it is a server flag, not a request field. It
	// participates in non-shortest cache keys.
	UarchProfile string
}

// Server is the sortsynthd HTTP handler. Create it with New, serve it
// with net/http, and call Close during shutdown to abort any searches
// still in flight after the drain period.
type Server struct {
	cfg        Config
	cache      *kcache.Cache
	universe   *universe.Store // L0 baked tier; nil when not mounted
	flights    *flightGroup
	sem        chan struct{} // bounded search worker pool
	metrics    *metrics
	registry   *backend.Registry
	mux        *http.ServeMux
	baseCancel context.CancelFunc
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrentSearches <= 0 {
		cfg.MaxConcurrentSearches = runtime.GOMAXPROCS(0)
	}
	if cfg.SearchTimeout <= 0 {
		cfg.SearchTimeout = 2 * time.Minute
	}
	if cfg.MaxN <= 0 {
		cfg.MaxN = 5
	}
	if cfg.MaxSortN <= 0 {
		cfg.MaxSortN = 256
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	if _, ok := uarch.ProfileByName(cfg.UarchProfile); !ok {
		return nil, fmt.Errorf("service: unknown uarch profile %q (known: %s)",
			cfg.UarchProfile, strings.Join(uarch.ProfileNames(), ", "))
	}
	cache, err := kcache.New(cfg.CacheDir, cfg.CacheSize)
	if err != nil {
		return nil, err
	}
	var uni *universe.Store
	if cfg.UniversePath != "" {
		uni, err = universe.Open(cfg.UniversePath)
		if err != nil {
			return nil, err
		}
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      cache,
		universe:   uni,
		flights:    newFlightGroup(base),
		sem:        make(chan struct{}, cfg.MaxConcurrentSearches),
		registry:   backend.Default(),
		mux:        http.NewServeMux(),
		baseCancel: cancel,
	}
	routes := map[string]http.HandlerFunc{
		"POST /v1/synthesize":       s.handleSynthesize,
		"GET /v1/synthesize":        s.handleSynthesizeGet,
		"POST /v1/synthesize/batch": s.handleSynthesizeBatch,
		"GET /v1/kernels":           s.handleKernels,
		"GET /v1/sortgen":           s.handleSortgen,
		"POST /v1/verify":           s.handleVerify,
		"GET /metrics":              s.handleMetrics,
		"GET /healthz":              s.handleHealthz,
	}
	patterns := make([]string, 0, len(routes))
	for p := range routes {
		patterns = append(patterns, p)
	}
	s.metrics = newMetrics(patterns)
	for p, h := range routes {
		s.mux.HandleFunc(p, s.metrics.instrument(p, h))
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close cancels the server's base context, aborting every in-flight
// search, and unmaps the universe artifact if one is mounted. Call it
// after http.Server.Shutdown has drained (or given up on) the in-flight
// requests.
func (s *Server) Close() {
	s.baseCancel()
	if s.universe != nil {
		s.universe.Close()
	}
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// decodeJSON strictly decodes the request body into v, rejecting unknown
// fields and trailing garbage so malformed requests fail fast with 400.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "bad request body: trailing data")
		return false
	}
	return true
}

// setFor builds the instruction set for an (isa, n, m) triple, or
// reports a descriptive error for invalid combinations.
func (s *Server) setFor(isaName string, n, m int) (*isa.Set, error) {
	var kind isa.Kind
	switch isaName {
	case "", "cmov":
		kind = isa.KindCmov
	case "minmax":
		kind = isa.KindMinMax
	default:
		return nil, fmt.Errorf("unknown isa %q (want cmov or minmax)", isaName)
	}
	if n < 2 || n > s.cfg.MaxN {
		return nil, fmt.Errorf("n=%d out of range (want 2..%d)", n, s.cfg.MaxN)
	}
	if m < 0 || n+m > 7 {
		return nil, fmt.Errorf("m=%d out of range (need m ≥ 0 and n+m ≤ 7 for the packed state machine)", m)
	}
	return isa.New(kind, n, m), nil
}

var errShuttingDown = errors.New("search aborted: server shutting down")
