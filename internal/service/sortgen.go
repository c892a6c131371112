package service

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"sortsynth/internal/enum"
	"sortsynth/internal/kcache"
	"sortsynth/internal/sortgen"
)

// sortgenResponse is the GET /v1/sortgen reply: a complete branchless
// sorter for a fixed n, generated from synthesized kernels and merge
// networks, as compilable Go source plus the plan metadata.
type sortgenResponse struct {
	N    int    `json:"n"`
	Elem string `json:"elem"`
	Func string `json:"func"`
	// Objective names the kernel set inlined into the sorter: "fastest"
	// (default — the model-best picks) or "shortest" (the first picks).
	Objective string `json:"objective"`
	// Blocks is the kernel-block cover, e.g. "5+5+3" for n=13.
	Blocks string `json:"blocks"`
	// KernelInstructions counts the synthesized-kernel instructions
	// inlined into the sorter; Comparators counts the merge-layer
	// compare-and-swaps.
	KernelInstructions int    `json:"kernel_instructions"`
	Comparators        int    `json:"comparators"`
	Source             string `json:"source"`
	Cached             bool   `json:"cached"`
	Key                string `json:"key"`
	// GeneratedMS is the artifact's cost: what the original composition
	// and emission took. On a cache hit it does NOT describe this
	// request — that is ServedMS, measured from this request's start.
	GeneratedMS float64 `json:"generated_ms"`
	ServedMS    float64 `json:"served_ms"`
}

// sortgenKey builds the cache key for a generated sorter. The artifact
// is a pure function of (n, element type, objective) — the composer,
// kernel registry, and emitter are deterministic — so those fields are
// the whole content address ("sortgen" sits in the Backend slot, the
// element type in the ISA slot, the objective in the option surface).
func sortgenKey(n int, elem string, obj enum.Objective) kcache.Key {
	return kcache.Key{ISA: elem, N: n, Backend: "sortgen", Opt: enum.Options{Objective: obj}}
}

// handleSortgen serves GET /v1/sortgen?n=13[&elem=int][&objective=...]:
// the generated sorter source, cache-keyed through kcache like every
// other artifact. The objective defaults to "fastest" — unlike
// /v1/synthesize, whose default preserves the historical first-pick
// reply, a generated sorter has always inlined the model-best kernels,
// and "fastest" is that set's name.
func (s *Server) handleSortgen(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := r.URL.Query()
	n, err := strconv.Atoi(q.Get("n"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad or missing n %q", q.Get("n"))
		return
	}
	if n < 0 || n > s.cfg.MaxSortN {
		writeError(w, http.StatusBadRequest, "n=%d out of range (want 0..%d)", n, s.cfg.MaxSortN)
		return
	}
	obj := enum.ObjectiveFastest
	if objStr := q.Get("objective"); objStr != "" {
		if obj, err = enum.ParseObjective(objStr); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if obj == enum.ObjectiveBalanced {
		writeError(w, http.StatusBadRequest,
			"objective %q has no frozen kernel set (sortgen serves shortest or fastest)", obj)
		return
	}
	elem := q.Get("elem")
	if elem == "" {
		elem = "int"
	}
	// Validate the element type before any composition work (and before
	// keying: "Int" and "int" would otherwise mint distinct cache keys
	// through the ISA slot). The spelling is the exact Go type name —
	// case variants are rejected here, not normalized.
	if !sortgen.ValidElem(elem) {
		writeError(w, http.StatusBadRequest,
			"unsupported element type %q (ordered integer types and string only, exact Go spelling)", elem)
		return
	}

	key := sortgenKey(n, elem, obj)
	hash := key.Hash()
	if e, ok := s.cache.Get(key); ok {
		s.metrics.cacheHits.Add(1)
		resp, err := sortgenResponseFor(n, elem, obj, e, hash, true, start)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.metrics.cacheMisses.Add(1)

	plan, err := sortgen.ComposeObjective(n, obj)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	src, err := plan.GoFile(sortgen.EmitOptions{Elem: elem})
	if err != nil {
		// The element type was validated up front, so an emitter failure
		// here is a server bug, not a client error.
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	entry := &kcache.Entry{
		Backend:       "sortgen",
		Objective:     obj.String(),
		Program:       src,
		Length:        plan.KernelInstructions() + plan.Comparators(),
		SolutionCount: 1,
		ElapsedNS:     int64(time.Since(start)),
	}
	if err := s.cache.Put(key, entry); err != nil {
		s.metrics.recordPutError(err) // memory tier still serves it; see runSearch
	}
	resp, err := sortgenResponseFor(n, elem, obj, entry, hash, false, start)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// sortgenResponseFor rebuilds the plan metadata around a cached (or
// fresh) entry. The block cover is deterministic and cheap, so a cache
// hit never re-runs the merge construction or the emitter.
func sortgenResponseFor(n int, elem string, obj enum.Objective, e *kcache.Entry, hash string, cached bool, start time.Time) (sortgenResponse, error) {
	blocks, err := sortgen.BlocksFor(n)
	if err != nil {
		return sortgenResponse{}, err
	}
	meta := &sortgen.Plan{N: n, Blocks: blocks, Objective: obj}
	ki := meta.KernelInstructions()
	if e.Length < ki {
		return sortgenResponse{}, fmt.Errorf("sortgen cache entry for n=%d is inconsistent (length %d < %d kernel instructions)", n, e.Length, ki)
	}
	return sortgenResponse{
		N:                  n,
		Elem:               elem,
		Func:               fmt.Sprintf("Sort%d", n),
		Objective:          obj.String(),
		Blocks:             meta.BlocksDesc(),
		KernelInstructions: ki,
		Comparators:        e.Length - ki,
		Source:             e.Program,
		Cached:             cached,
		Key:                hash,
		GeneratedMS:        float64(e.ElapsedNS) / float64(time.Millisecond),
		ServedMS:           float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}
