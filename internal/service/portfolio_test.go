package service

import (
	"fmt"
	"net/http"
	"testing"
	"time"
)

// TestPortfolioStaggersByDefault drives a portfolio request through a
// default-Config server: enum, launched first, wins inside its solo
// window, both fallbacks stay parked, the answer is byte-identical to a
// direct enum synthesis, and the scheduler counters say exactly that.
func TestPortfolioStaggersByDefault(t *testing.T) {
	_, ts := newTestServer(t)

	viaPortfolio := synthesize(t, ts.URL, `{"isa":"cmov","n":2,"backend":"portfolio"}`)
	if viaPortfolio.Cached || viaPortfolio.Length != 4 {
		t.Fatalf("portfolio response %+v, want fresh length-4 kernel", viaPortfolio)
	}
	viaEnum := synthesize(t, ts.URL, `{"isa":"cmov","n":2}`)
	if viaPortfolio.Kernel != viaEnum.Kernel {
		t.Fatalf("portfolio kernel diverges from enum:\n%s\nvs\n%s", viaPortfolio.Kernel, viaEnum.Kernel)
	}

	want := map[string]float64{
		"first_pick_wins":          1,
		"staggered_saved_launches": 2,
		"fallback_starts":          0,
		"fallbacks_won":            0,
	}
	var m struct {
		Scheduler map[string]float64 `json:"scheduler"`
	}
	if resp := getJSON(t, ts.URL+"/metrics", &m); resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	sched := m.Scheduler
	for name, v := range want {
		if sched[name] != v {
			t.Fatalf("%s = %v, want %v (scheduler %v)", name, sched[name], v, sched)
		}
	}
}

// TestPortfolioSchedulerCountersReconcile runs N fresh portfolio
// requests and checks the scheduler counters add up: every found answer
// was won either by the first member or by a fallback, and each of the
// two fallbacks of every request either launched or was parked.
func TestPortfolioSchedulerCountersReconcile(t *testing.T) {
	_, ts := newTestServer(t)

	const seeds = 3
	n := 0
	for _, size := range []int{2, 3} {
		for seed := 1; seed <= seeds; seed++ {
			res := synthesize(t, ts.URL, fmt.Sprintf(`{"isa":"cmov","n":%d,"backend":"portfolio","seed":%d}`, size, seed))
			if res.Cached {
				t.Fatalf("n=%d seed=%d served from cache, want a fresh race", size, seed)
			}
			n++
		}
	}

	var m struct {
		Scheduler map[string]float64 `json:"scheduler"`
		Backends  map[string]struct {
			Started int64 `json:"started"`
			Found   int64 `json:"found"`
		} `json:"backends"`
	}
	getJSON(t, ts.URL+"/metrics", &m)
	pf := m.Backends["portfolio"]
	if pf.Started != int64(n) || pf.Found != int64(n) {
		t.Fatalf("portfolio counters %+v, want %d started and found", pf, n)
	}
	sc := m.Scheduler
	if got := sc["first_pick_wins"] + sc["fallbacks_won"]; got != float64(pf.Found) {
		t.Fatalf("first_pick_wins + fallbacks_won = %v, want the portfolio's found count %d (scheduler %v)", got, pf.Found, sc)
	}
	if got := sc["fallback_starts"] + sc["staggered_saved_launches"]; got != float64(2*n) {
		t.Fatalf("fallback_starts + staggered_saved_launches = %v, want 2 × %d (scheduler %v)", got, n, sc)
	}
}

// TestPortfolioRefutationEndsRace asks the portfolio for a cmov n=3
// kernel within 10 instructions, one below the optimum. Enum, launched
// first, certifies that no such kernel exists in a few hundred
// milliseconds; the refutation must end the race and answer 422 at once
// instead of holding the search slot until smt gives up at the
// two-minute search timeout.
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
