package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func synthesize(t *testing.T, url, body string) synthesizeResponse {
	t.Helper()
	resp, blob := postJSON(t, url+"/v1/synthesize", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/synthesize: %d: %s", resp.StatusCode, blob)
	}
	var sr synthesizeResponse
	if err := json.Unmarshal(blob, &sr); err != nil {
		t.Fatalf("bad response %s: %v", blob, err)
	}
	return sr
}

func getMetrics(t *testing.T, url string) map[string]map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Cache    map[string]any `json:"cache"`
		Searches map[string]any `json:"searches"`
		Universe map[string]any `json:"universe"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return map[string]map[string]any{"cache": m.Cache, "searches": m.Searches, "universe": m.Universe}
}

// backendMetrics returns the per-backend counters of /metrics.
func backendMetrics(t *testing.T, url string) map[string]backendSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Backends map[string]backendSnapshot `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m.Backends
}

func counter(t *testing.T, m map[string]map[string]any, section, name string) int64 {
	t.Helper()
	v, ok := m[section][name]
	if !ok {
		t.Fatalf("metric %s.%s missing", section, name)
	}
	return int64(v.(float64))
}

func TestSynthesizeMissThenCachedHit(t *testing.T) {
	_, ts := newTestServer(t)

	// Duplicate-safe min/max n=5 at its default budget takes over a
	// second: slow enough that the ≥100× cached speedup holds on a
	// loaded host, fast enough for the suite.
	body := `{"isa": "minmax", "n": 5, "duplicate_safe": true}`

	t0 := time.Now()
	first := synthesize(t, ts.URL, body)
	missDur := time.Since(t0)
	if first.Cached {
		t.Fatal("first request reported cached=true")
	}
	if first.Length != 23 {
		t.Fatalf("length = %d, want 23", first.Length)
	}
	if !strings.Contains(first.Kernel, "min") {
		t.Fatalf("kernel = %q", first.Kernel)
	}

	t0 = time.Now()
	second := synthesize(t, ts.URL, body)
	hitDur := time.Since(t0)
	if !second.Cached {
		t.Fatal("second identical request reported cached=false")
	}
	if second.Kernel != first.Kernel || second.Key != first.Key {
		t.Error("cached reply differs from the synthesized one")
	}
	t.Logf("miss: %v, hit: %v (%.0f× faster)", missDur, hitDur, float64(missDur)/float64(hitDur))
	if hitDur*100 > missDur {
		t.Errorf("cached hit (%v) is not ≥100× faster than the miss (%v)", hitDur, missDur)
	}

	m := getMetrics(t, ts.URL)
	if got := counter(t, m, "cache", "hits"); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	if got := counter(t, m, "searches", "started"); got != 1 {
		t.Errorf("searches started = %d, want 1", got)
	}
}

func TestSynthesizeCoalescesConcurrentRequests(t *testing.T) {
	_, ts := newTestServer(t)
	const clients = 8
	body := `{"n": 3, "config": "distmax"}`

	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]synthesizeResponse, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = synthesize(t, ts.URL, body)
		}(i)
	}
	close(start)
	wg.Wait()

	coalesced := 0
	for i, sr := range results {
		if sr.Length != 11 {
			t.Errorf("client %d: length %d", i, sr.Length)
		}
		if sr.Kernel != results[0].Kernel {
			t.Errorf("client %d got a different kernel", i)
		}
		if sr.Coalesced {
			coalesced++
		}
	}
	m := getMetrics(t, ts.URL)
	if got := counter(t, m, "searches", "started"); got != 1 {
		t.Errorf("searches started = %d, want exactly 1 for %d concurrent identical requests", got, clients)
	}
	if got := counter(t, m, "searches", "in_flight"); got != 0 {
		t.Errorf("in_flight = %d after completion", got)
	}
	// Whoever lost the race to open the flight must report coalesced.
	if got := counter(t, m, "searches", "coalesced"); got != int64(coalesced) || coalesced == 0 {
		t.Errorf("coalesced metric = %d, responses flagged = %d (want equal and > 0)", got, coalesced)
	}
	t.Logf("%d/%d requests coalesced onto one search", coalesced, clients)
}

func TestSynthesizeClientCancellationStopsSearch(t *testing.T) {
	_, ts := newTestServer(t)

	// Plain Dijkstra on n=4 runs for minutes; the 150ms client deadline
	// must abort the underlying search, not just the HTTP wait.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/synthesize",
		strings.NewReader(`{"n": 4, "config": "dijkstra"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("request succeeded with status %d, want context deadline error", resp.StatusCode)
	}

	// The search must wind down promptly once its last waiter is gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := getMetrics(t, ts.URL)
		started := counter(t, m, "searches", "started")
		completed := counter(t, m, "searches", "completed")
		cancelled := counter(t, m, "searches", "cancelled")
		inFlight := counter(t, m, "searches", "in_flight")
		if started == 1 && completed == 1 && cancelled == 1 && inFlight == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("search not cancelled: started=%d completed=%d cancelled=%d in_flight=%d",
				started, completed, cancelled, inFlight)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSynthesizeRequestTimeoutReturns504(t *testing.T) {
	_, ts := newTestServer(t)
	resp, blob := postJSON(t, ts.URL+"/v1/synthesize", `{"n": 4, "config": "dijkstra", "timeout_ms": 100}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, blob)
	}
}

func TestSynthesizeMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body string
	}{
		{"truncated json", `{"n": 3,`},
		{"not json", `synthesize me a kernel please`},
		{"unknown field", `{"n": 3, "frobnicate": true}`},
		{"trailing garbage", `{"n": 3} {"n": 4}`},
		{"n too large", `{"n": 6}`},
		{"n too small", `{"n": 1}`},
		{"bad isa", `{"n": 3, "isa": "riscv"}`},
		{"bad config", `{"n": 3, "config": "bogosort"}`},
		{"too many registers", `{"n": 5, "m": 3}`},
		{"negative m", `{"n": 3, "m": -1}`},
		{"no known bound", `{"n": 3, "m": 2}`},
		{"max_solutions without all", `{"n": 3, "max_solutions": 5}`},
		{"max_len beyond depth limit", `{"n": 3, "max_len": 251}`},
	}
	for _, tc := range cases {
		resp, blob := postJSON(t, ts.URL+"/v1/synthesize", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, resp.StatusCode, blob)
		}
		var ae apiError
		if err := json.Unmarshal(blob, &ae); err != nil || ae.Error == "" {
			t.Errorf("%s: error envelope missing: %s", tc.name, blob)
		}
	}
}

func TestSynthesizeExplicitBoundTooShort(t *testing.T) {
	_, ts := newTestServer(t)
	// No 3-value cmov kernel of length ≤ 5 exists; the search exhausts.
	resp, blob := postJSON(t, ts.URL+"/v1/synthesize", `{"n": 3, "max_len": 5, "config": "distmax"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", resp.StatusCode, blob)
	}
}

func TestSynthesizeAllSolutionsMinMax(t *testing.T) {
	_, ts := newTestServer(t)
	sr := synthesize(t, ts.URL, `{"n": 2, "isa": "minmax", "all": true, "max_solutions": 5}`)
	if sr.Length != 3 {
		t.Errorf("length = %d, want 3", sr.Length)
	}
	if sr.SolutionCount < 1 || len(sr.Programs) < 1 {
		t.Errorf("solution_count = %d, programs = %d", sr.SolutionCount, len(sr.Programs))
	}
}

func TestKernelsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	get := func(path string) (int, map[string]json.RawMessage) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]json.RawMessage
		json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}

	status, m := get("/v1/kernels?n=3")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	var list []kernelInfo
	json.Unmarshal(m["kernels"], &list)
	names := map[string]bool{}
	for _, k := range list {
		if k.N != 3 {
			t.Errorf("n filter leaked: %+v", k)
		}
		names[k.Name] = true
	}
	for _, want := range []string{"enum", "network", "std", "sort3_minmax"} {
		if !names[want] {
			t.Errorf("missing contender %q in %v", want, names)
		}
	}

	status, m = get("/v1/kernels?isa=minmax")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	json.Unmarshal(m["kernels"], &list)
	if len(list) == 0 {
		t.Fatal("no minmax contenders")
	}
	for _, k := range list {
		if k.ISA != "minmax" {
			t.Errorf("isa filter leaked: %+v", k)
		}
	}

	status, m = get("/v1/kernels?name=enum&n=4")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	json.Unmarshal(m["kernels"], &list)
	if len(list) != 1 || list[0].Program == "" || list[0].Instructions != 20 {
		t.Errorf("name lookup = %+v", list)
	}

	if status, _ = get("/v1/kernels?name=nonexistent"); status != http.StatusNotFound {
		t.Errorf("bogus name: status = %d, want 404", status)
	}
	if status, _ = get("/v1/kernels?n=9"); status != http.StatusBadRequest {
		t.Errorf("bad n: status = %d, want 400", status)
	}
}

func TestVerifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	// The paper's §2.1 kernel: correct on permutations and duplicates.
	status, m := verifyReq(t, ts.URL, `{"n": 3, "program": "mov s1 r1; cmp r3 s1; cmovl s1 r3; cmovl r3 r1; cmp r2 r3; mov r1 r2; cmovg r2 r3; cmovg r3 r1; cmp r1 s1; cmovl r2 s1; cmovg r1 s1"}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !m.Correct || !m.DuplicateSafe || m.Counterexample != nil {
		t.Errorf("paper kernel: %+v", m)
	}
	if m.Instructions != 11 || m.Analysis == nil {
		t.Errorf("analysis missing: %+v", m)
	}

	// A program that obviously does not sort.
	status, m = verifyReq(t, ts.URL, `{"n": 3, "program": "mov r1 r2"}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if m.Correct || m.Counterexample == nil {
		t.Errorf("non-sorting program accepted: %+v", m)
	}

	// "mov r1 r2" at n=2 leaves both registers equal on every input, so
	// its output is always ascending: only the multiset-preservation half
	// of the correctness check can reject it.
	status, m = verifyReq(t, ts.URL, `{"n": 2, "program": "mov r1 r2"}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if m.Correct || m.Counterexample == nil {
		t.Errorf("value-destroying program accepted: %+v", m)
	}

	// Malformed program text and out-of-set registers are 400s.
	for _, body := range []string{
		`{"n": 3, "program": "hcf r1 r2"}`,
		`{"n": 3, "program": "mov r9 r1"}`,
		`{"n": 3, "program": "mov s4 r1"}`,
		`{"n": 3, "program": ""}`,
	} {
		resp, blob := postJSON(t, ts.URL+"/v1/verify", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", body, resp.StatusCode, blob)
		}
	}
}

func verifyReq(t *testing.T, url, body string) (int, verifyResponse) {
	t.Helper()
	resp, blob := postJSON(t, url+"/v1/verify", body)
	var vr verifyResponse
	json.Unmarshal(blob, &vr)
	return resp.StatusCode, vr
}

func TestHealthzAndMetricsShape(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h["status"] != "ok" {
		t.Errorf("healthz = %v", h)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Latency map[string]histogramSnapshot `json:"latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{"POST /v1/synthesize", "GET /v1/kernels", "POST /v1/verify", "GET /metrics", "GET /healthz"} {
		if _, ok := m.Latency[route]; !ok {
			t.Errorf("latency histogram for %q missing", route)
		}
	}
	// The /healthz call above must have been observed.
	if m.Latency["GET /healthz"].Count != 1 {
		t.Errorf("healthz latency count = %d, want 1", m.Latency["GET /healthz"].Count)
	}
	if n := len(m.Latency["GET /healthz"].Buckets); n != numBuckets+1 {
		t.Errorf("bucket count = %d, want %d", n, numBuckets+1)
	}
}

func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	first := synthesize(t, ts1.URL, `{"n": 3}`)
	ts1.Close()
	s1.Close()

	// A "restarted" daemon over the same cache dir serves the kernel
	// without searching.
	s2, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	defer s2.Close()
	second := synthesize(t, ts2.URL, `{"n": 3}`)
	if !second.Cached || second.Kernel != first.Kernel {
		t.Errorf("restart lost the disk tier: cached=%v", second.Cached)
	}
	m := getMetrics(t, ts2.URL)
	if got := counter(t, m, "searches", "started"); got != 0 {
		t.Errorf("searches started after restart = %d, want 0", got)
	}
}

func TestServerCloseAbortsInFlightSearches(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	errc := make(chan error, 1)
	go func() {
		resp, blob := postJSONNoFatal(ts.URL+"/v1/synthesize", `{"n": 4, "config": "dijkstra"}`)
		if resp == nil {
			errc <- fmt.Errorf("request failed entirely")
			return
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			errc <- fmt.Errorf("status = %d (%s), want 503", resp.StatusCode, blob)
			return
		}
		errc <- nil
	}()

	// Wait for the search to actually start, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := getMetrics(t, ts.URL)
		if counter(t, m, "searches", "in_flight") == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("search never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.Close()

	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("request did not return after Server.Close")
	}
}

func postJSONNoFatal(url, body string) (*http.Response, []byte) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}
