package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// TestPortfolioRefutationEndsRace asks the portfolio for a cmov kernel
// one instruction below a proved optimum: n=3 within 10 (proved in the
// repository) and n=4 within 19 (the paper's §5.3 result, which no
// search here can settle). Both answer 422 "no kernel … exists" at
// once, from the optimum table, instead of holding the search slot,
// and /metrics counts both as refutations.
func TestPortfolioRefutationEndsRace(t *testing.T) {
	_, ts := newTestServer(t)

	limit := time.Second
	if raceEnabled {
		limit = 10 * time.Second
	}
	for _, tc := range []struct{ n, maxLen int }{{3, 10}, {4, 19}} {
		start := time.Now()
		resp, blob := postJSON(t, ts.URL+"/v1/synthesize",
			fmt.Sprintf(`{"isa":"cmov","n":%d,"max_len":%d,"backend":"portfolio"}`, tc.n, tc.maxLen))
		elapsed := time.Since(start)
		want := fmt.Sprintf("no kernel of length ≤ %d exists", tc.maxLen)
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(blob), want) {
			t.Fatalf("n=%d: status = %d, want 422 %q: %s", tc.n, resp.StatusCode, want, blob)
		}
		if elapsed >= limit {
			t.Fatalf("n=%d: refuted portfolio request took %v, want under %v", tc.n, elapsed, limit)
		}
	}
	if bc := backendMetrics(t, ts.URL)["enum"]; bc.NoKernel != 2 || bc.Exhausted != 0 {
		t.Errorf("enum counters no_kernel %d, exhausted %d; want 2 and 0", bc.NoKernel, bc.Exhausted)
	}
}

// TestUnprovedBudgetAnswersExhausted asks for a min/max n=5 kernel
// within 22 instructions, one below the shortest known. No proof says
// none exists: ConfigBest's cut search exhausts, and so does the capped
// certifying search after it (about 300,000 states in all). The answer
// is the 422 "exhausted its budget", never "no kernel … exists",
// nothing is cached, and /metrics counts it as exhausted, not as a
// refutation.
func TestUnprovedBudgetAnswersExhausted(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("a multi-second min/max n=5 search; skipped under -race and -short")
	}
	dir := t.TempDir()
	s, err := New(Config{CacheDir: dir, SearchTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, blob := postJSON(t, ts.URL+"/v1/synthesize", `{"isa":"minmax","n":5,"max_len":22}`)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(blob), "exhausted its budget") {
		t.Fatalf("status = %d, want 422 \"exhausted its budget\": %s", resp.StatusCode, blob)
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("memory tier holds %d entries, want none", n)
	}
	if bc := backendMetrics(t, ts.URL)["enum"]; bc.Exhausted != 1 || bc.NoKernel != 0 {
		t.Errorf("enum counters exhausted %d, no_kernel %d; want 1 and 0", bc.Exhausted, bc.NoKernel)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".json") {
			t.Errorf("disk tier holds %s, want no entry", f.Name())
		}
	}
}
