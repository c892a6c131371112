package service

import (
	"encoding/json"
	"net/http"
	"testing"
)

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: bad response: %v", url, err)
	}
	return resp
}

// TestSynthesizeGetObjective drives the acceptance path end to end:
// GET /v1/synthesize?...&objective=fastest returns a verified kernel
// that diverges from the shortest pick, under a distinct cache key.
func TestSynthesizeGetObjective(t *testing.T) {
	_, ts := newTestServer(t)

	var fast synthesizeResponse
	resp := getJSON(t, ts.URL+"/v1/synthesize?isa=cmov&n=3&objective=fastest", &fast)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fastest: status %d", resp.StatusCode)
	}
	if fast.Length != 11 || fast.Objective != "fastest" || fast.Cost <= 0 {
		t.Fatalf("fastest reply: length %d objective %q cost %v", fast.Length, fast.Objective, fast.Cost)
	}
	if fast.SolutionCount < 2 || fast.RerankTruncated {
		t.Errorf("fastest should rank the whole set and report its size, got %d (truncated %v)", fast.SolutionCount, fast.RerankTruncated)
	}

	var short synthesizeResponse
	resp = getJSON(t, ts.URL+"/v1/synthesize?n=3", &short)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shortest: status %d", resp.StatusCode)
	}
	if short.Objective != "" || short.Cost != 0 {
		t.Errorf("shortest reply should keep the historical shape, got objective %q cost %v", short.Objective, short.Cost)
	}
	if short.Kernel == fast.Kernel {
		t.Error("shortest and fastest served the same kernel at n=3")
	}
	if short.Key == fast.Key {
		t.Error("objectives share a cache key")
	}

	// The GET form and the POST form are the same request: same key,
	// now answered from cache.
	var again synthesizeResponse
	if _, blob := postJSON(t, ts.URL+"/v1/synthesize", `{"n": 3, "objective": "fastest"}`); true {
		if err := json.Unmarshal(blob, &again); err != nil {
			t.Fatalf("POST reply: %v", err)
		}
	}
	if again.Key != fast.Key || !again.Cached {
		t.Errorf("POST objective=fastest: key %q cached %v, want the GET's key from cache", again.Key, again.Cached)
	}
}

// TestRerankTruncatedSurfaces asks for the fastest cmov n=4 kernel,
// whose optimal set (7,043,960 programs) outgrows the ranking cap. The
// prefix pick reaches the caller: the live reply and the cached one say
// rerank_truncated, and /metrics counts the search once.
func TestRerankTruncatedSurfaces(t *testing.T) {
	if testing.Short() {
		t.Skip("a cmov n=4 search that ranks 65,536 programs; skipped under -short")
	}
	_, ts := newTestServer(t)
	for _, cached := range []bool{false, true} {
		sr := synthesize(t, ts.URL, `{"isa":"cmov","n":4,"objective":"fastest"}`)
		if sr.Cached != cached || sr.Length != 20 || !sr.RerankTruncated {
			t.Fatalf("reply cached %v, length %d, rerank_truncated %v; want cached %v, 20, true",
				sr.Cached, sr.Length, sr.RerankTruncated, cached)
		}
	}
	if bc := backendMetrics(t, ts.URL)["enum"]; bc.RerankTruncated != 1 || bc.Found != 1 {
		t.Errorf("enum counters rerank_truncated %d, found %d; want 1 and 1", bc.RerankTruncated, bc.Found)
	}
}

// TestSynthesizeObjectiveRejections pins the 400s: bad spellings,
// unknown query parameters, and non-enum backends.
func TestSynthesizeObjectiveRejections(t *testing.T) {
	_, ts := newTestServer(t)
	for _, q := range []string{
		"?n=3&objective=speed",
		"?n=3&objective=FASTEST",
		"?n=2&backend=smt&max_len=4&objective=fastest",
		"?n=3&objectve=fastest", // typo must not silently no-op
	} {
		var e apiError
		resp := getJSON(t, ts.URL+"/v1/synthesize"+q, &e)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d (%s), want 400", q, resp.StatusCode, e.Error)
		}
	}
}

// TestSortgenObjective pins the sorter-generation split: fastest is the
// default (today's bytes), shortest inlines the first-pick kernels
// under a distinct key, balanced is a 400.
func TestSortgenObjective(t *testing.T) {
	_, ts := newTestServer(t)

	var def, fast, short sortgenResponse
	getJSON(t, ts.URL+"/v1/sortgen?n=13", &def)
	getJSON(t, ts.URL+"/v1/sortgen?n=13&objective=fastest", &fast)
	getJSON(t, ts.URL+"/v1/sortgen?n=13&objective=shortest", &short)
	if def.Objective != "fastest" || def.Key != fast.Key || def.Source != fast.Source {
		t.Error("default objective should be fastest with identical key and source")
	}
	if short.Key == fast.Key {
		t.Error("objectives share a sortgen cache key")
	}
	if short.Source == fast.Source {
		t.Error("shortest and fastest sorters have identical source")
	}
	if short.Comparators != fast.Comparators || short.KernelInstructions != fast.KernelInstructions {
		t.Error("objective changed the plan counters; only kernel bodies should differ")
	}

	var e apiError
	resp := getJSON(t, ts.URL+"/v1/sortgen?n=13&objective=balanced", &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("balanced sortgen: status %d, want 400", resp.StatusCode)
	}
}
