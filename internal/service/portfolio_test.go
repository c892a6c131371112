package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestPortfolioRefutationEndsRace asks the portfolio for a cmov n=3
// kernel within 10 instructions, one below the optimum. The certifying
// enum search proves that no such kernel exists in about 20 ms,
// so the request answers 422 at once instead of holding the search slot
// until the two-minute search timeout.
func TestPortfolioRefutationEndsRace(t *testing.T) {
	_, ts := newTestServer(t)

	limit := time.Second
	if raceEnabled {
		limit = 10 * time.Second
	}
	start := time.Now()
	resp, blob := postJSON(t, ts.URL+"/v1/synthesize", `{"isa":"cmov","n":3,"max_len":10,"backend":"portfolio"}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", resp.StatusCode, blob)
	}
	if elapsed >= limit {
		t.Fatalf("refuted portfolio request took %v, want under %v", elapsed, limit)
	}
}

// TestPortfolioSpentBudgetAnswersPromptly asks for a cmov n=4 kernel
// within 19 instructions, one below the optimum. Neither the search nor
// its capped proof search can settle that budget, so the request must
// answer 422 "exhausted its budget" as soon as enum gives up (about
// 5 s on a 2-vCPU host), not hold its search slot until the search
// timeout.
func TestPortfolioSpentBudgetAnswersPromptly(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("a multi-second cmov n=4 search; skipped under -race and -short")
	}
	s, err := New(Config{CacheDir: t.TempDir(), SearchTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	start := time.Now()
	resp, blob := postJSON(t, ts.URL+"/v1/synthesize", `{"isa":"cmov","n":4,"max_len":19,"backend":"portfolio"}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(blob), "exhausted its budget") {
		t.Fatalf("status = %d, want 422 \"exhausted its budget\": %s", resp.StatusCode, blob)
	}
	if limit := 20 * time.Second; elapsed >= limit {
		t.Fatalf("spent-budget portfolio request took %v, want under %v", elapsed, limit)
	}
}
