package service

import (
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// numBuckets is the number of finite histogram buckets; the implicit
// last bucket is +Inf.
const numBuckets = 16

// latencyBuckets are the upper bounds (in milliseconds) of the
// per-endpoint latency histograms.
var latencyBuckets = [numBuckets]float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histogram is a fixed-bucket latency histogram with atomic counters.
type histogram struct {
	count  atomic.Int64
	sumUS  atomic.Int64 // total microseconds, for the mean
	bucket [numBuckets + 1]atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	h.count.Add(1)
	h.sumUS.Add(d.Microseconds())
	for i, ub := range latencyBuckets {
		if ms <= ub {
			h.bucket[i].Add(1)
			return
		}
	}
	h.bucket[numBuckets].Add(1)
}

// bucketSnapshot is one histogram bucket in the /metrics JSON.
type bucketSnapshot struct {
	LE    any   `json:"le"` // upper bound in ms, or "+Inf"
	Count int64 `json:"count"`
}

type histogramSnapshot struct {
	Count   int64            `json:"count"`
	SumMS   float64          `json:"sum_ms"`
	Buckets []bucketSnapshot `json:"buckets"`
}

func (h *histogram) snapshot() histogramSnapshot {
	s := histogramSnapshot{
		Count: h.count.Load(),
		SumMS: float64(h.sumUS.Load()) / 1000,
	}
	for i, ub := range latencyBuckets {
		s.Buckets = append(s.Buckets, bucketSnapshot{LE: ub, Count: h.bucket[i].Load()})
	}
	s.Buckets = append(s.Buckets, bucketSnapshot{LE: "+Inf", Count: h.bucket[numBuckets].Load()})
	return s
}

// metrics holds the expvar-style service counters surfaced by /metrics.
type metrics struct {
	start time.Time

	// Request-level cache outcomes (the kcache tier split lives in
	// kcache.Stats and is merged into the /metrics payload).
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// cachePutErrors counts failed kcache.Put disk writes. A dead disk
	// tier silently degrades to permanent re-computation; this is the
	// signal that it is happening.
	cachePutErrors atomic.Int64
	putErrMu       sync.Mutex
	putErrSeen     map[string]bool // error strings already logged

	// universeNegatives counts requests answered 422 straight from a
	// baked refutation record (hits/misses/corruption-skips live in
	// universe.Stats and are merged into the /metrics payload).
	universeNegatives atomic.Int64

	searchesStarted   atomic.Int64
	searchesCompleted atomic.Int64
	searchesCancelled atomic.Int64
	searchesTimedOut  atomic.Int64
	inFlight          atomic.Int64
	coalesced         atomic.Int64 // requests that joined an existing flight
	nodesExpanded     atomic.Int64

	mu      sync.Mutex            // guards latency (histograms are self-synchronizing)
	latency map[string]*histogram // keyed by route pattern

	bmu      sync.Mutex // guards backends (counters are self-synchronizing)
	backends map[string]*backendCounters
}

// recordPutError counts a failed cache write and logs the first
// occurrence of each distinct error string — enough to surface a dead
// disk tier without flooding the log on every miss.
func (m *metrics) recordPutError(err error) {
	m.cachePutErrors.Add(1)
	msg := err.Error()
	m.putErrMu.Lock()
	defer m.putErrMu.Unlock()
	if m.putErrSeen == nil {
		m.putErrSeen = make(map[string]bool)
	}
	// Bound the dedup set; past it, repeat messages may re-log, which
	// beats unbounded growth on pathological error strings.
	if len(m.putErrSeen) >= 128 {
		m.putErrSeen = make(map[string]bool)
	}
	if !m.putErrSeen[msg] {
		m.putErrSeen[msg] = true
		log.Printf("kcache: disk write failed (will re-synthesize on future misses): %v", err)
	}
}

// backendCounters tracks one registry backend's synthesis outcomes and
// latency, surfaced under "backends" in /metrics.
type backendCounters struct {
	started   atomic.Int64
	completed atomic.Int64
	found     atomic.Int64
	noKernel  atomic.Int64 // proved refutations
	exhausted atomic.Int64 // spent budgets that prove nothing
	cancelled atomic.Int64
	timedOut  atomic.Int64
	errors    atomic.Int64
	// rerankTruncated counts found kernels ranked from a prefix of an
	// optimal set too large to rank whole.
	rerankTruncated atomic.Int64
	latency         histogram
}

// backendSnapshot is one backend's counters in the /metrics JSON.
type backendSnapshot struct {
	Started         int64             `json:"started"`
	Completed       int64             `json:"completed"`
	Found           int64             `json:"found"`
	NoKernel        int64             `json:"no_kernel"`
	Exhausted       int64             `json:"exhausted"`
	Cancelled       int64             `json:"cancelled"`
	TimedOut        int64             `json:"timed_out"`
	Errors          int64             `json:"errors"`
	RerankTruncated int64             `json:"rerank_truncated"`
	Latency         histogramSnapshot `json:"latency"`
}

// backendFor returns the named backend's counters, creating them on
// first use.
func (m *metrics) backendFor(name string) *backendCounters {
	m.bmu.Lock()
	defer m.bmu.Unlock()
	if m.backends == nil {
		m.backends = make(map[string]*backendCounters)
	}
	bc, ok := m.backends[name]
	if !ok {
		bc = &backendCounters{}
		m.backends[name] = bc
	}
	return bc
}

// backendsSnapshot captures every backend's counters under the map lock.
func (m *metrics) backendsSnapshot() map[string]backendSnapshot {
	m.bmu.Lock()
	defer m.bmu.Unlock()
	out := make(map[string]backendSnapshot, len(m.backends))
	for name, bc := range m.backends {
		out[name] = backendSnapshot{
			Started:         bc.started.Load(),
			Completed:       bc.completed.Load(),
			Found:           bc.found.Load(),
			NoKernel:        bc.noKernel.Load(),
			Exhausted:       bc.exhausted.Load(),
			Cancelled:       bc.cancelled.Load(),
			TimedOut:        bc.timedOut.Load(),
			Errors:          bc.errors.Load(),
			RerankTruncated: bc.rerankTruncated.Load(),
			Latency:         bc.latency.snapshot(),
		}
	}
	return out
}

func newMetrics(routes []string) *metrics {
	m := &metrics{start: time.Now(), latency: make(map[string]*histogram, len(routes))}
	for _, r := range routes {
		m.latency[r] = &histogram{}
	}
	return m
}

// histFor returns the route's histogram, creating it on first use.
// Routes instrumented without being pre-registered in newMetrics used to
// capture a nil histogram and panic on their first request.
func (m *metrics) histFor(route string) *histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.latency[route]
	if !ok {
		h = &histogram{}
		m.latency[route] = h
	}
	return h
}

// latencySnapshot captures every route's histogram under the map lock.
func (m *metrics) latencySnapshot() map[string]histogramSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]histogramSnapshot, len(m.latency))
	for route, h := range m.latency {
		out[route] = h.snapshot()
	}
	return out
}

// instrument wraps h to record the endpoint's latency histogram.
func (m *metrics) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := m.histFor(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.observe(time.Since(start))
	}
}
