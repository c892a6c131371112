package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sortsynth/internal/universe"
)

// miniBake is a miniature universe (cmov, n=2, enum, budgets 3..5). The
// space is small enough to bake in milliseconds, and covers both a
// positive (L*=4) and a negative (budget 3) record.
var miniBake = universe.Options{
	ISAs: []string{"cmov"}, MinN: 2, MaxN: 2, Slack: 1,
	Backends: []string{"enum"}, Workers: 2, SpecTimeout: time.Minute,
}

// bakeMini writes the miniBake universe and returns its path.
func bakeMini(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mini.ssuniv")
	_, stats, err := universe.Bake(context.Background(), path, nil, miniBake)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 || stats.Baked == 0 {
		t.Fatalf("mini bake: %+v", stats)
	}
	return path
}

func newUniverseServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{CacheDir: t.TempDir(), UniversePath: bakeMini(t)})
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

func TestUniverseServesBakedSpecWithZeroSearches(t *testing.T) {
	_, ts := newUniverseServer(t)

	// The default request for n=2 (enum, config best, max_len = L* = 4)
	// is exactly a baked spec: it must be answered from the universe
	// without starting a search or touching the kcache tiers.
	sr := synthesize(t, ts.URL, `{"n": 2}`)
	if sr.Source != "universe" || !sr.Cached {
		t.Fatalf("source = %q cached = %v, want universe hit", sr.Source, sr.Cached)
	}
	if sr.Length != 4 || sr.Backend != "enum" {
		t.Errorf("baked kernel: length=%d backend=%q", sr.Length, sr.Backend)
	}

	m := getMetrics(t, ts.URL)
	if got := counter(t, m, "universe", "hits"); got != 1 {
		t.Errorf("universe hits = %d, want 1", got)
	}
	if got := counter(t, m, "searches", "started"); got != 0 {
		t.Errorf("searches started = %d, want 0: the baked spec must not search", got)
	}
	if got := counter(t, m, "cache", "hits") + counter(t, m, "cache", "misses"); got != 0 {
		t.Errorf("kcache consulted %d times, want 0: universe is L0", got)
	}
	if got := counter(t, m, "universe", "records"); got < 3 {
		t.Errorf("universe records = %d, want ≥ 3", got)
	}
}

// TestBakedEqualsLiveUnderDefaultConfig pins one artifact per cache key
// across the answer tiers: on a multi-core runtime, a server built with
// the default Config and no universe must synthesize, for every baked
// positive spec, the byte-identical kernel the bake recorded, with the
// same cost, solution count and search effort.
func TestBakedEqualsLiveUnderDefaultConfig(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	store, err := universe.Open(bakeMini(t))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() { ts.Close(); s.Close() }()

	checked := 0
	for _, sp := range universe.EnumerateSpecs(miniBake) {
		baked, ok := store.Lookup(sp.Key())
		if !ok {
			t.Fatalf("%v: not in the baked universe", sp)
		}
		if baked.NoKernel {
			continue
		}
		live := synthesize(t, ts.URL, fmt.Sprintf(`{"isa":%q,"n":%d,"max_len":%d,"objective":%q}`,
			sp.ISA, sp.N, sp.Budget, sp.Objective))
		if live.Source != sourceSearch || live.Key != sp.Key().Hash() {
			t.Fatalf("%v: source %q key %s, want a live search for key %s", sp, live.Source, live.Key, sp.Key().Hash())
		}
		if live.Kernel != baked.Program {
			t.Errorf("%v: live kernel\n  %s\nbaked\n  %s", sp, live.Kernel, baked.Program)
		}
		if live.Cost != baked.Cost || live.SolutionCount != baked.SolutionCount || live.Stats.Expanded != baked.Expanded {
			t.Errorf("%v: live cost %v, %d solutions, %d expanded; baked %v, %d, %d", sp,
				live.Cost, live.SolutionCount, live.Stats.Expanded, baked.Cost, baked.SolutionCount, baked.Expanded)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("the mini bake holds no positive record")
	}
}

func TestUniverseServesBakedNegative(t *testing.T) {
	_, ts := newUniverseServer(t)

	// No 2-value cmov kernel of length ≤ 3 exists; the refutation is
	// baked, so the 422 comes straight from the universe.
	resp, blob := postJSON(t, ts.URL+"/v1/synthesize", `{"n": 2, "max_len": 3}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", resp.StatusCode, blob)
	}
	m := getMetrics(t, ts.URL)
	if got := counter(t, m, "universe", "negatives"); got != 1 {
		t.Errorf("universe negatives = %d, want 1", got)
	}
	if got := counter(t, m, "searches", "started"); got != 0 {
		t.Errorf("searches started = %d, want 0: the baked refutation must not re-search", got)
	}
}

func TestUniverseMissFallsThroughToSearch(t *testing.T) {
	_, ts := newUniverseServer(t)

	// minmax n=2 is outside the mini bake (cmov only): a miss on the
	// universe must fall through to a normal live synthesis.
	sr := synthesize(t, ts.URL, `{"n": 2, "isa": "minmax"}`)
	if sr.Source != "search" || sr.Cached {
		t.Fatalf("source = %q cached = %v, want live search", sr.Source, sr.Cached)
	}
	m := getMetrics(t, ts.URL)
	if got := counter(t, m, "universe", "misses"); got != 1 {
		t.Errorf("universe misses = %d, want 1", got)
	}
	if got := counter(t, m, "searches", "started"); got != 1 {
		t.Errorf("searches started = %d, want 1", got)
	}
	// The artifact lands in the kcache, so a repeat is a cache hit (the
	// universe still misses first — no promotion into L0).
	sr = synthesize(t, ts.URL, `{"n": 2, "isa": "minmax"}`)
	if sr.Source != "cache" {
		t.Errorf("repeat source = %q, want cache", sr.Source)
	}
}

func TestUniverseMetricsUnmounted(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Universe map[string]any `json:"universe"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if mounted, ok := m.Universe["mounted"].(bool); !ok || mounted {
		t.Errorf("universe section without -universe = %v, want mounted=false", m.Universe)
	}
}

func TestNewRejectsDamagedUniverse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ssuniv")
	if err := os.WriteFile(path, []byte("not a universe artifact at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := New(Config{UniversePath: path}); err == nil {
		s.Close()
		t.Fatal("New accepted a damaged universe artifact")
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newUniverseServer(t)

	body := `{"specs": [
		{"n": 2},
		{"n": 2, "isa": "riscv"},
		{"n": 2, "max_len": 3},
		{"n": 2}
	]}`
	resp, blob := postJSON(t, ts.URL+"/v1/synthesize/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, blob)
	}
	var br batchResponse
	if err := json.Unmarshal(blob, &br); err != nil {
		t.Fatal(err)
	}
	if br.Count != 4 || len(br.Results) != 4 {
		t.Fatalf("count = %d, results = %d, want 4", br.Count, len(br.Results))
	}

	// Item 0: baked hit.
	if r := br.Results[0]; !r.OK || r.Response == nil || r.Response.Source != "universe" || r.Response.Length != 4 {
		t.Errorf("item 0 = %+v, want a universe hit of length 4", r)
	}
	// Item 1: validation error, per-item 400 without failing the batch.
	if r := br.Results[1]; r.OK || r.Status != http.StatusBadRequest || r.Error == "" {
		t.Errorf("item 1 = %+v, want a 400 item", r)
	}
	// Item 2: baked refutation, per-item 422.
	if r := br.Results[2]; r.OK || r.Status != http.StatusUnprocessableEntity {
		t.Errorf("item 2 = %+v, want a 422 item", r)
	}
	// Item 3: identical to item 0, also served from the universe.
	if r := br.Results[3]; !r.OK || r.Response == nil || r.Response.Source != "universe" {
		t.Errorf("item 3 = %+v, want a universe hit", r)
	}

	m := getMetrics(t, ts.URL)
	if got := counter(t, m, "searches", "started"); got != 0 {
		t.Errorf("searches started = %d, want 0: every resolvable spec was baked", got)
	}
}

func TestBatchCoalescesIdenticalMisses(t *testing.T) {
	_, ts := newTestServer(t)

	// Four identical non-baked specs in one batch: the flight group must
	// collapse them onto a single search.
	body := `{"specs": [{"n": 3}, {"n": 3}, {"n": 3}, {"n": 3}]}`
	resp, blob := postJSON(t, ts.URL+"/v1/synthesize/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, blob)
	}
	var br batchResponse
	if err := json.Unmarshal(blob, &br); err != nil {
		t.Fatal(err)
	}
	for i, r := range br.Results {
		if !r.OK || r.Response == nil || r.Response.Length != 11 {
			t.Fatalf("item %d = %+v", i, r)
		}
		if r.Response.Kernel != br.Results[0].Response.Kernel {
			t.Errorf("item %d kernel differs", i)
		}
	}
	m := getMetrics(t, ts.URL)
	if got := counter(t, m, "searches", "started"); got != 1 {
		t.Errorf("searches started = %d, want 1 for four identical specs", got)
	}
}

func TestBatchLimits(t *testing.T) {
	s, err := New(Config{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/synthesize/batch", `{"specs": []}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, want 400", resp.StatusCode)
	}
	resp, blob := postJSON(t, ts.URL+"/v1/synthesize/batch", `{"specs": [{"n": 2}, {"n": 2}, {"n": 2}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status = %d, want 400: %s", resp.StatusCode, blob)
	}
}

func TestCachePutErrorsAreCounted(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	// Break the disk tier out from under the server: replacing the cache
	// directory with a regular file makes every CreateTemp fail (even as
	// root, where permission bits would not).
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The synthesis still succeeds — the memory tier serves it — but the
	// failed disk write must be counted, not swallowed.
	sr := synthesize(t, ts.URL, `{"n": 2}`)
	if sr.Length != 4 {
		t.Fatalf("length = %d", sr.Length)
	}
	m := getMetrics(t, ts.URL)
	if got := counter(t, m, "cache", "put_errors"); got != 1 {
		t.Errorf("cache put_errors = %d, want 1", got)
	}
	// And the entry is really in the memory tier.
	if sr = synthesize(t, ts.URL, `{"n": 2}`); sr.Source != "cache" {
		t.Errorf("repeat source = %q, want cache (memory tier)", sr.Source)
	}
}
