package service

import (
	"net/http"
	"strconv"
	"time"

	"sortsynth/internal/isa"
	"sortsynth/internal/kernels"
	"sortsynth/internal/uarch"
	"sortsynth/internal/verify"
)

// kernelInfo is one row of the GET /v1/kernels listing.
type kernelInfo struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	// ISA is "cmov" or "minmax" for contenders with an abstract program;
	// empty for pure-Go contenders (network, std, …).
	ISA          string `json:"isa,omitempty"`
	Instructions int    `json:"instructions,omitempty"`
	Native       bool   `json:"native"`
	// Program is the abstract program text, included only for single-
	// kernel lookups (?name=…).
	Program string `json:"program,omitempty"`
}

func isaName(k kernels.Kernel) string {
	if k.Set == nil {
		return ""
	}
	if k.Set.Kind == isa.KindMinMax {
		return "minmax"
	}
	return "cmov"
}

func infoFor(k kernels.Kernel, withProgram bool) kernelInfo {
	info := kernelInfo{
		Name:         k.Name,
		N:            k.N,
		ISA:          isaName(k),
		Instructions: len(k.Prog),
		Native:       k.Go != nil,
	}
	if withProgram && k.Prog != nil {
		info.Program = k.Prog.Format(k.N)
	}
	return info
}

// handleKernels serves the §5.3 contender registry. Query parameters:
// n (3..5), isa (cmov|minmax), name (exact contender name; implies the
// program text in the reply).
func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ns := []int{3, 4, 5}
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 3 || n > 5 {
			writeError(w, http.StatusBadRequest, "bad n %q (registry covers 3..5)", v)
			return
		}
		ns = []int{n}
	}
	isaFilter := q.Get("isa")
	switch isaFilter {
	case "", "cmov", "minmax":
	default:
		writeError(w, http.StatusBadRequest, "unknown isa %q (want cmov or minmax)", isaFilter)
		return
	}

	if name := q.Get("name"); name != "" {
		var found []kernelInfo
		for _, n := range ns {
			if k, ok := kernels.Lookup(name, n); ok && (isaFilter == "" || isaName(k) == isaFilter) {
				found = append(found, infoFor(k, true))
			}
		}
		if len(found) == 0 {
			writeError(w, http.StatusNotFound, "no contender %q", name)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"kernels": found, "count": len(found)})
		return
	}

	var list []kernelInfo
	for _, n := range ns {
		for _, k := range kernels.Contenders(n) {
			if isaFilter != "" && isaName(k) != isaFilter {
				continue
			}
			list = append(list, infoFor(k, false))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"kernels": list, "count": len(list)})
}

// verifyRequest is the POST /v1/verify body.
type verifyRequest struct {
	ISA     string `json:"isa"`
	N       int    `json:"n"`
	M       *int   `json:"m"` // default 1
	Program string `json:"program"`
}

// analysisInfo is the §5.4 static cost model in the API's JSON shape.
type analysisInfo struct {
	Instructions int     `json:"instructions"`
	Uops         int     `json:"uops"`
	Score        int     `json:"score"`
	CriticalPath int     `json:"critical_path"`
	ILP          float64 `json:"ilp"`
	Throughput   float64 `json:"throughput"`
}

// verifyResponse reports the correctness check and the static cost model
// for a submitted program.
type verifyResponse struct {
	Correct bool `json:"correct"`
	// DuplicateSafe additionally certifies correctness on repeated
	// values (the weak-order suite). A kernel can sort all permutations
	// yet mis-sort ties.
	DuplicateSafe bool `json:"duplicate_safe"`
	// Counterexample is an input the program fails to sort, when any.
	Counterexample []int         `json:"counterexample,omitempty"`
	Instructions   int           `json:"instructions"`
	Analysis       *analysisInfo `json:"analysis,omitempty"`
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req verifyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	m := 1
	if req.M != nil {
		m = *req.M
	}
	set, err := s.setFor(req.ISA, req.N, m)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p, err := isa.ParseProgram(req.Program, set.N)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(p) == 0 {
		writeError(w, http.StatusBadRequest, "empty program")
		return
	}
	// ParseProgram bounds sorted registers by n but accepts any scratch
	// index; bound those by the set before executing.
	for i, in := range p {
		if int(in.Dst) >= set.Regs() || int(in.Src) >= set.Regs() {
			writeError(w, http.StatusBadRequest,
				"instruction %d uses a register outside the %d-register set (m=%d)", i+1, set.Regs(), m)
			return
		}
	}

	resp := verifyResponse{Instructions: len(p)}
	if ce := verify.Counterexample(set, p); ce != nil {
		resp.Counterexample = ce
	} else {
		resp.Correct = true
		if ce := verify.DuplicateCounterexample(set, p); ce != nil {
			resp.Counterexample = ce
		} else {
			resp.DuplicateSafe = true
		}
		a := uarch.Analyze(set, p)
		resp.Analysis = &analysisInfo{
			Instructions: a.Instructions,
			Uops:         a.Uops,
			Score:        a.Score,
			CriticalPath: a.CriticalPath,
			ILP:          a.ILP,
			Throughput:   a.Throughput,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the expvar-style counter snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	cs := s.cache.Stats()
	latency := m.latencySnapshot()
	uni := map[string]any{"mounted": false}
	if s.universe != nil {
		us := s.universe.Stats()
		uni = map[string]any{
			"mounted":       true,
			"records":       us.Records,
			"hits":          us.Hits,
			"misses":        us.Misses,
			"corrupt_skips": us.Corrupt,
			"negatives":     m.universeNegatives.Load(),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_ms": float64(time.Since(m.start)) / float64(time.Millisecond),
		"cache": map[string]any{
			"hits":       m.cacheHits.Load(),
			"misses":     m.cacheMisses.Load(),
			"mem_hits":   cs.MemHits,
			"disk_hits":  cs.DiskHits,
			"corrupt":    cs.Corrupt,
			"evictions":  cs.Evictions,
			"put_errors": m.cachePutErrors.Load(),
		},
		"universe": uni,
		"searches": map[string]any{
			"started":        m.searchesStarted.Load(),
			"completed":      m.searchesCompleted.Load(),
			"cancelled":      m.searchesCancelled.Load(),
			"timed_out":      m.searchesTimedOut.Load(),
			"in_flight":      m.inFlight.Load(),
			"coalesced":      m.coalesced.Load(),
			"nodes_expanded": m.nodesExpanded.Load(),
		},
		"backends": m.backendsSnapshot(),
		"latency":  latency,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": float64(time.Since(s.metrics.start)) / float64(time.Millisecond),
	})
}
