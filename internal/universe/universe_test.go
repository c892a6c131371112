package universe

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sortsynth/internal/backend"
	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/kcache"
)

func testEntry(be string, length int) *kcache.Entry {
	return &kcache.Entry{
		Backend:       be,
		Program:       "cmp r0 r1\nmov r2 r0",
		Length:        length,
		SolutionCount: 1,
		Expanded:      123,
		Generated:     456,
		ElapsedNS:     789,
	}
}

func enumKey(isaName string, n, budget int) kcache.Key {
	return Spec{ISA: isaName, N: n, M: 1, Backend: "enum", Budget: budget}.Key()
}

// writeTestArtifact bakes a tiny hand-made artifact and returns its path
// and the keys written.
func writeTestArtifact(t *testing.T) (string, []kcache.Key) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "u.ssuniv")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := []kcache.Key{
		enumKey("cmov", 2, 4),
		enumKey("minmax", 3, 8),
		kcache.KeyForBackend(Spec{ISA: "cmov", N: 3, M: 1}.Set(), "smt", 11, 0),
	}
	for i, k := range keys {
		if err := w.Add(k, testEntry("enum", 4+i)); err != nil {
			t.Fatal(err)
		}
	}
	// One negative record.
	neg := enumKey("cmov", 2, 2)
	if err := w.Add(neg, &kcache.Entry{Backend: "enum", NoKernel: true, Length: 2}); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, neg)
	if _, _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, keys
}

func TestRoundTrip(t *testing.T) {
	path, keys := writeTestArtifact(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(keys))
	}
	for i, k := range keys {
		e, ok := s.Lookup(k)
		if !ok {
			t.Fatalf("key %d missed", i)
		}
		if e.Key != k.Canonical() {
			t.Errorf("key %d: entry holds %q, want %q", i, e.Key, k.Canonical())
		}
	}
	// Negative record round-trips with the NoKernel marker.
	if e, ok := s.Lookup(enumKey("cmov", 2, 2)); !ok || !e.NoKernel || e.Length != 2 {
		t.Errorf("negative record = %+v, ok=%v; want NoKernel Length=2 hit", e, ok)
	}
	// An unbaked key is a clean miss.
	if _, ok := s.Lookup(enumKey("cmov", 5, 33)); ok {
		t.Error("unbaked key hit")
	}
	st := s.Stats()
	if st.Hits != int64(len(keys))+1 || st.Misses != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := s.VerifyFull(); err != nil {
		t.Errorf("VerifyFull: %v", err)
	}
	if s.ContentID() == "" {
		t.Error("empty content ID")
	}
}

func TestWriterReportsContentID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "u.ssuniv")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(enumKey("cmov", 2, 4), testEntry("enum", 4)); err != nil {
		t.Fatal(err)
	}
	id, n, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(id) != 64 {
		t.Fatalf("Close = (%q, %d)", id, n)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.ContentID() != id {
		t.Errorf("store content ID %s != writer's %s", s.ContentID(), id)
	}
}

func TestWriterRejectsDuplicateKeys(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "u.ssuniv"))
	if err != nil {
		t.Fatal(err)
	}
	k := enumKey("cmov", 2, 4)
	if err := w.Add(k, testEntry("enum", 4)); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(k, testEntry("enum", 4)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Close(); err == nil {
		t.Fatal("Close accepted a duplicate key")
	}
}

func TestLookupDoesNotAllocateWhenMemoized(t *testing.T) {
	path, keys := writeTestArtifact(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := keys[0]
	if _, ok := s.Lookup(k); !ok { // warm: decode + memoize
		t.Fatal("warmup lookup missed")
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Lookup(k) }); allocs != 0 {
		t.Errorf("memoized Lookup allocates %.1f objects per call, want 0", allocs)
	}
	// Misses are allocation-free too.
	miss := enumKey("cmov", 5, 33)
	if allocs := testing.AllocsPerRun(100, func() { s.Lookup(miss) }); allocs != 0 {
		t.Errorf("miss Lookup allocates %.1f objects per call, want 0", allocs)
	}
}

func TestOpenRejectsDamage(t *testing.T) {
	path, _ := writeTestArtifact(t)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"bad format version", func(b []byte) []byte { b[8+0] ^= 0xff; return b }},
		{"bad key version", func(b []byte) []byte { b[12] ^= 0xff; return b }},
		{"truncated header", func(b []byte) []byte { return b[:headerSize-1] }},
		{"truncated index", func(b []byte) []byte { return b[:len(b)-1] }},
		{"index bit flip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"count overflow", func(b []byte) []byte {
			for i := 16; i < 24; i++ {
				b[i] = 0xff
			}
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "bad.ssuniv")
			mutated := tc.mutate(append([]byte(nil), blob...))
			if err := os.WriteFile(p, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			if s, err := Open(p); err == nil {
				s.Close()
				t.Fatal("Open accepted a damaged artifact")
			}
		})
	}
}

func TestCorruptRecordIsAMissNotAnError(t *testing.T) {
	path, keys := writeTestArtifact(t)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record payload (right after the
	// header); the index checksum does not cover payloads, so Open
	// succeeds and the damage surfaces lazily.
	blob[headerSize+4] ^= 0x01
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var hits, corrupt int
	for _, k := range keys {
		if _, ok := s.Lookup(k); ok {
			hits++
		}
	}
	corrupt = int(s.Stats().Corrupt)
	if corrupt != 1 || hits != len(keys)-1 {
		t.Errorf("hits=%d corrupt=%d, want %d hits and 1 corrupt", hits, corrupt, len(keys)-1)
	}
	// The corrupt slot is memoized: a repeat lookup misses without
	// recounting corruption.
	for _, k := range keys {
		s.Lookup(k)
	}
	if got := s.Stats().Corrupt; got != 1 {
		t.Errorf("corrupt recounted: %d", got)
	}
	if err := s.VerifyFull(); err == nil {
		t.Error("VerifyFull missed the damaged record")
	}
}

func TestEnumerateSpecsMirrorsServiceKeys(t *testing.T) {
	specs := EnumerateSpecs(Options{
		ISAs: []string{"cmov"}, MinN: 2, MaxN: 3, Slack: 1,
		Backends: []string{"enum", "smt"}, DuplicateSafe: true,
	})
	// smt: 2 n values × 3 budgets, shortest only. enum: the same 6
	// instances × 2 objectives (shortest, fastest) × 2 dupsafe variants.
	if len(specs) != 30 {
		t.Fatalf("enumerated %d specs, want 30", len(specs))
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		c := sp.Key().Canonical()
		if seen[c] {
			t.Fatalf("duplicate key %s", c)
		}
		seen[c] = true
	}
	// The enum key matches what the service builds for config "best".
	opt := enum.ConfigBest()
	opt.MaxLen = 4
	opt.DuplicateSafe = false
	want := kcache.KeyFor(Spec{ISA: "cmov", N: 2, M: 1}.Set(), opt).Canonical()
	if got := enumKey("cmov", 2, 4).Canonical(); got != want {
		t.Errorf("spec key %q != service key %q", got, want)
	}
}

// TestEntryForRecordsOnlyProofs: a refutation is recorded only when it
// is proved. A spent budget proves nothing, even from enum, and a
// stopped search has no answer; neither gets an artifact.
func TestEntryForRecordsOnlyProofs(t *testing.T) {
	set, spec := isa.NewMinMax(5, 1), backend.Spec{MaxLen: 22}
	for _, tc := range []struct {
		status backend.Status
		want   *kcache.Entry
	}{
		{backend.StatusNoProgram, &kcache.Entry{Backend: "enum", NoKernel: true, Length: 22}},
		{backend.StatusExhausted, nil},
		{backend.StatusTimedOut, nil},
		{backend.StatusCancelled, nil},
	} {
		got := EntryFor(set, spec, &backend.Result{Backend: "enum", Status: tc.status, Length: 22})
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v: EntryFor = %+v, want %+v", tc.status, got, tc.want)
		}
	}
}

// TestBakeMini runs a real miniature bake (enum only, n=2, slack 1) and
// checks positives and negatives land where the serving path will look.
func TestBakeMini(t *testing.T) {
	if testing.Short() {
		t.Skip("real synthesis")
	}
	path := filepath.Join(t.TempDir(), "mini.ssuniv")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	id, stats, err := Bake(ctx, path, nil, Options{
		ISAs: []string{"cmov"}, MinN: 2, MaxN: 2, Slack: 1,
		Backends: []string{"enum"}, SpecTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failed != 0 {
		t.Fatalf("bake failed specs: %+v", stats)
	}
	if len(id) != 64 {
		t.Fatalf("content ID %q", id)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Optimal budget (L*=4): a kernel of length 4 must be baked.
	e, ok := s.Lookup(enumKey("cmov", 2, 4))
	if !ok || e.NoKernel || e.Length != 4 {
		t.Fatalf("cmov n=2 maxlen=4 = %+v, ok=%v; want length-4 kernel", e, ok)
	}
	// Sub-optimal budget (3 < L*): baked as a negative.
	e, ok = s.Lookup(enumKey("cmov", 2, 3))
	if !ok || !e.NoKernel {
		t.Fatalf("cmov n=2 maxlen=3 = %+v, ok=%v; want baked negative", e, ok)
	}
	if s.ContentID() != id {
		t.Errorf("content ID drifted: %s != %s", s.ContentID(), id)
	}

	// Equal bakes are byte-identical: a second run of the same space —
	// at a different GOMAXPROCS, so with a different number of bake
	// workers — must produce the same content ID. (Wall clock is
	// deliberately excluded from baked entries; node counts are
	// deterministic because each search runs on one goroutine.)
	runtime.GOMAXPROCS(1)
	path2 := filepath.Join(t.TempDir(), "mini2.ssuniv")
	id2, _, err := Bake(ctx, path2, nil, Options{
		ISAs: []string{"cmov"}, MinN: 2, MaxN: 2, Slack: 1,
		Backends: []string{"enum"}, SpecTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Errorf("equal bakes not byte-identical: %s != %s", id2, id)
	}
}

// miniContentID is the sha256 of the mini universe TestBakeMiniContentID
// bakes, the same artifact as
//
//	sortsynth-bake -min-n 2 -max-n 3 -slack 2 -backends enum -dupsafe
//
// It is the same on amd64 and 386 and at any GOMAXPROCS. A change
// that alters any baked artifact must update it and say why.
const miniContentID = "27d017250fc87927e4188967363154d03b6b5a7089017430bc52ec095365e56e"

// TestBakeMiniContentID pins one artifact per key: the mini universe
// (enum, both ISAs, n=2..3, slack 2, duplicate-safe variants, default
// objectives) must hash to miniContentID at GOMAXPROCS 1 and 2, so
// baked by one worker and by two.
// It runs under -short (the bake takes well under a second) so the
// cross-architecture test run checks it too.
func TestBakeMiniContentID(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		path := filepath.Join(t.TempDir(), "mini.ssuniv")
		id, stats, err := Bake(ctx, path, nil, Options{
			ISAs: []string{"cmov", "minmax"}, MinN: 2, MaxN: 3, Slack: 2,
			Backends: []string{"enum"}, DuplicateSafe: true,
			SpecTimeout: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Failed != 0 || stats.Skipped != 0 {
			t.Fatalf("GOMAXPROCS=%d: bake did not cover every spec: %+v", procs, stats)
		}
		if id != miniContentID {
			t.Errorf("GOMAXPROCS=%d: content ID %s, want %s", procs, id, miniContentID)
		}
	}
}
