package service

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"

	"sortsynth/internal/backend"
	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/kcache"
)

// listingBackend claims an all-solutions list whose second program is
// broken.
type listingBackend struct{ good, wrong isa.Program }

func (listingBackend) Name() string { return "lister" }
func (b listingBackend) Synthesize(context.Context, *isa.Set, backend.Spec) (*backend.Result, error) {
	return &backend.Result{Backend: "lister", Status: backend.StatusFound, Program: b.good,
		Programs: []isa.Program{b.good, b.wrong}, Length: len(b.good), Solutions: 2}, nil
}

// TestFlightCachesNothingUnverified: every flight runs through
// backend.Run, so a broken program anywhere in a claimed list fails the
// flight with *backend.IncorrectError and leaves the cache empty.
func TestFlightCachesNothingUnverified(t *testing.T) {
	s, _ := newTestServer(t)
	set := isa.NewCmov(2, 1)
	opt := enum.ConfigAllSolutions()
	opt.MaxLen = 4
	all := enum.Run(set, opt)
	if len(all.Programs) == 0 {
		t.Fatalf("setup enumeration found nothing: %+v", all)
	}
	good := all.Programs[0]
	key := kcache.KeyFor(set, opt)
	_, err := s.runFlight(context.Background(), key, set, listingBackend{good, good[:len(good)-1]}, backend.Spec{MaxLen: 4})
	var inc *backend.IncorrectError
	if !errors.As(err, &inc) {
		t.Fatalf("flight error %v, want *backend.IncorrectError", err)
	}
	if e, ok := s.cache.Get(key); ok {
		t.Fatalf("the flight cached an unverified artifact: %+v", e)
	}
}

func TestSynthesizeUnknownBackend400(t *testing.T) {
	_, ts := newTestServer(t)
	resp, blob := postJSON(t, ts.URL+"/v1/synthesize", `{"isa":"cmov","n":2,"backend":"nosuch"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, blob)
	}
	if !strings.Contains(string(blob), `unknown backend \"nosuch\"`) {
		t.Fatalf("error body %s does not name the unknown backend", blob)
	}
}

func TestSynthesizeBackendFieldCacheKeyAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)

	sr := synthesize(t, ts.URL, `{"isa":"cmov","n":2,"backend":"smt"}`)
	if sr.Backend != "smt" || sr.Cached || sr.Length != 4 {
		t.Fatalf("smt response %+v, want fresh backend=smt length=4", sr)
	}

	// The backend name is part of the cache key, so the same request
	// hits the smt artifact while an enum request misses it.
	if again := synthesize(t, ts.URL, `{"isa":"cmov","n":2,"backend":"smt"}`); !again.Cached || again.Backend != "smt" {
		t.Fatalf("repeat smt request %+v, want cached backend=smt", again)
	}
	if viaEnum := synthesize(t, ts.URL, `{"isa":"cmov","n":2}`); viaEnum.Cached || viaEnum.Backend != "enum" {
		t.Fatalf("enum request %+v, want a fresh search (distinct cache key)", viaEnum)
	}

	backends := backendMetrics(t, ts.URL)
	for _, name := range []string{"smt", "enum"} {
		bc, ok := backends[name]
		if !ok {
			t.Fatalf("/metrics backends missing %q: %+v", name, backends)
		}
		if bc.Started < 1 || bc.Completed < 1 || bc.Found < 1 {
			t.Fatalf("backend %q counters %+v, want started/completed/found ≥ 1", name, bc)
		}
	}
}

func TestSynthesizeBackendRejectsEnumOnlyOptions(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{"isa":"cmov","n":2,"backend":"smt","all":true}`,
		`{"isa":"cmov","n":2,"backend":"smt","config":"base"}`,
		`{"isa":"cmov","n":2,"backend":"cp","seed":7}`,
	} {
		resp, blob := postJSON(t, ts.URL+"/v1/synthesize", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", body, resp.StatusCode, blob)
		}
	}
}
