// Command sortsynthd serves synthesized sorting kernels over HTTP.
//
// For a given (isa, n, m, options) tuple the optimal kernel is a pure,
// deterministic artifact: the daemon synthesizes it once — coalescing
// concurrent identical requests into a single search — caches it in a
// two-tier content-addressed store, and serves it from the cache forever
// after.
//
//	sortsynthd -addr :8080 -cache-dir /var/cache/sortsynth
//
//	curl -s localhost:8080/v1/synthesize -d '{"n": 3}'
//	curl -s 'localhost:8080/v1/kernels?n=3'
//	curl -s 'localhost:8080/v1/sortgen?n=13'
//	curl -s localhost:8080/v1/verify -d '{"n": 2, "program": "..."}'
//	curl -s localhost:8080/metrics
//
// On SIGINT/SIGTERM the daemon stops accepting connections, drains
// in-flight requests for -drain, then hard-cancels any searches still
// running and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"syscall"
	"time"

	"sortsynth/internal/service"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		cacheDir  = flag.String("cache-dir", "", "on-disk kernel store (empty = memory-only)")
		cacheSize = flag.Int("cache-size", 256, "in-memory LRU capacity (entries)")
		searches  = flag.Int("max-searches", 0, "concurrent search bound (0 = GOMAXPROCS)")
		timeout   = flag.Duration("search-timeout", 2*time.Minute, "per-search wall-clock cap")
		maxN      = flag.Int("max-n", 5, "largest array length to accept")
		maxSortN  = flag.Int("max-sort-n", 256, "largest generated-sorter length for /v1/sortgen")
		uniPath   = flag.String("universe", "", "baked universe artifact (sortsynth-bake) mounted as the L0 tier (empty = off)")
		maxBatch  = flag.Int("max-batch", 32, "largest spec list accepted by /v1/synthesize/batch")
		drain     = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain period")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	)
	flag.Parse()

	srv, err := service.New(service.Config{
		CacheDir:              *cacheDir,
		CacheSize:             *cacheSize,
		MaxConcurrentSearches: *searches,
		SearchTimeout:         *timeout,
		MaxN:                  *maxN,
		MaxSortN:              *maxSortN,
		UniversePath:          *uniPath,
		MaxBatch:              *maxBatch,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *uniPath != "" {
		log.Printf("universe mounted: %s", *uniPath)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Profiling is opt-in and lives on its own listener so the profile
	// endpoints are never reachable through the service address. The
	// default ServeMux is avoided on purpose: importing net/http/pprof
	// registers handlers there, and serving http.DefaultServeMux would
	// expose them to anything else that registered too.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("sortsynthd listening on %s (cache-dir=%q)", *addr, *cacheDir)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Drain: stop accepting, let in-flight requests (and their searches)
	// finish within the drain budget.
	log.Printf("shutting down, draining for up to %v", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = httpSrv.Shutdown(drainCtx)
	// Hard stop: abort whatever searches are still running so their
	// handlers return and the process can exit.
	srv.Close()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Fatalf("shutdown: %v", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		log.Printf("drain period elapsed; cancelled remaining searches")
		// Give the cancelled handlers a moment to unwind.
		final, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		httpSrv.Shutdown(final)
	}
	log.Printf("bye")
}
