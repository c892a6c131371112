package kcache

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
)

func testKey(n int) Key {
	opt := enum.ConfigBest()
	opt.MaxLen = 11
	return KeyFor(isa.NewCmov(n, 1), opt)
}

func testEntry() *Entry {
	return &Entry{
		Program:   "mov s1 r1\ncmp r1 r2\n",
		Length:    11,
		Expanded:  4065,
		ElapsedNS: int64(10 * time.Millisecond),
	}
}

func TestMemoryRoundtrip(t *testing.T) {
	c, err := New("", 4)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(3)
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on an empty cache")
	}
	if err := c.Put(key, testEntry()); err != nil {
		t.Fatal(err)
	}
	e, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if e.Length != 11 || e.Key != key.Canonical() {
		t.Errorf("entry = %+v", e)
	}
	st := c.Stats()
	if st.MemHits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 mem hit and 1 miss", st)
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(3)
	if err := c1.Put(key, testEntry()); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory has a cold memory tier but
	// must hit on disk.
	c2, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := c2.Get(key)
	if !ok {
		t.Fatal("disk tier miss")
	}
	if e.Program != testEntry().Program {
		t.Errorf("program = %q", e.Program)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Errorf("stats = %+v, want 1 disk hit", st)
	}
	// The disk hit is promoted: the next Get is a memory hit.
	if _, ok := c2.Get(key); !ok {
		t.Fatal("miss after promotion")
	}
	if st := c2.Stats(); st.MemHits != 1 {
		t.Errorf("stats = %+v, want 1 mem hit after promotion", st)
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{3, 4, 5} {
		if err := c.Put(testKey(n), testEntry()); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
	// The evicted entry (n=3, least recently used) still lives on disk.
	if _, ok := c.Get(testKey(3)); !ok {
		t.Fatal("evicted entry lost from the disk tier")
	}
	if st := c.Stats(); st.DiskHits != 1 {
		t.Errorf("stats = %+v, want the evicted entry back from disk", st)
	}
}

func entryFile(t *testing.T, dir string, key Key) string {
	t.Helper()
	path := filepath.Join(dir, key.Hash()+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("entry file: %v", err)
	}
	return path
}

func TestCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(3)
	if err := c1.Put(key, testEntry()); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, dir, key)

	// Flip a byte inside the stored program text. The JSON still parses,
	// so only the checksum catches it.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(blob), "mov", "vom", 1)
	if mutated == string(blob) {
		t.Fatal("test setup: program text not found in the entry file")
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	st := c2.Stats()
	if st.Corrupt != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want corrupt=1 misses=1", st)
	}
	// The corrupt file is removed so the next Put can heal it.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt entry file not removed: %v", err)
	}
}

func TestTruncatedEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(3)
	if err := c.Put(key, testEntry()); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, dir, key)
	if err := os.Truncate(path, 10); err != nil {
		t.Fatal(err)
	}
	c2, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key); ok {
		t.Fatal("truncated entry served as a hit")
	}
}

func TestMisfiledEntryIsAMiss(t *testing.T) {
	// An entry whose payload verifies but belongs to a different key
	// (e.g. a file renamed by hand) must not be served.
	dir := t.TempDir()
	c, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	k3, k4 := testKey(3), testKey(4)
	if err := c.Put(k3, testEntry()); err != nil {
		t.Fatal(err)
	}
	src := entryFile(t, dir, k3)
	dst := filepath.Join(dir, k4.Hash()+".json")
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	c2, err := New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(k4); ok {
		t.Fatal("misfiled entry served under the wrong key")
	}
}

func TestCanonicalNormalization(t *testing.T) {
	set := isa.NewCmov(3, 1)
	base := enum.ConfigBest()
	base.MaxLen = 11

	// CutK is irrelevant with the cut disabled.
	a, b := base, base
	a.Cut, a.CutK = enum.CutNone, 0
	b.Cut, b.CutK = enum.CutNone, 7
	if KeyFor(set, a).Canonical() != KeyFor(set, b).Canonical() {
		t.Error("CutK leaks into the key with CutNone")
	}

	// Execution-only knobs do not change the artifact address.
	a, b = base, base
	b.Workers = 8
	b.StateBudget = 1 << 40
	b.Trace = &enum.Trace{}
	if KeyFor(set, a).Canonical() != KeyFor(set, b).Canonical() {
		t.Error("execution-only options leak into the key")
	}

	// Artifact-determining fields must change it.
	b = base
	b.DuplicateSafe = true
	if KeyFor(set, base).Canonical() == KeyFor(set, b).Canonical() {
		t.Error("DuplicateSafe does not change the key")
	}
	b = base
	b.MaxLen = 12
	if KeyFor(set, base).Canonical() == KeyFor(set, b).Canonical() {
		t.Error("MaxLen does not change the key")
	}
	b = base
	b.Objective = enum.ObjectiveFastest
	if KeyFor(set, base).Canonical() == KeyFor(set, b).Canonical() {
		t.Error("Objective does not change the key")
	}
	if KeyFor(isa.NewCmov(3, 1), base).Hash() == KeyFor(isa.NewMinMax(3, 1), base).Hash() {
		t.Error("isa kind does not change the hash")
	}
}

func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			key := testKey(3 + i%3)
			for j := 0; j < 50; j++ {
				c.Put(key, testEntry())
				c.Get(key)
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

func TestVersionMarker(t *testing.T) {
	// A fresh directory is stamped with the current scheme and mounts
	// again without complaint.
	dir := t.TempDir()
	if _, err := New(dir, 4); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, versionMarker))
	if err != nil || strings.TrimSpace(string(blob)) != "3" {
		t.Fatalf("marker = %q, %v; want \"3\"", blob, err)
	}
	if _, err := New(dir, 4); err != nil {
		t.Fatalf("remount of a stamped store: %v", err)
	}

	// A store stamped under an older scheme is rejected loudly.
	old := t.TempDir()
	os.WriteFile(filepath.Join(old, versionMarker), []byte("2\n"), 0o644)
	_, err = New(old, 4)
	var stale *StaleStoreError
	if !asStale(err, &stale) || stale.Found != 2 || stale.Want != KeyVersion {
		t.Fatalf("v2 store: err = %v, want *StaleStoreError{Found: 2}", err)
	}
	if !strings.Contains(err.Error(), "re-bake") {
		t.Errorf("stale error %q should tell the operator to re-bake", err)
	}

	// An unmarked directory that already holds entries predates the
	// marker and is rejected too; Found is 0 ("unmarked").
	pre := t.TempDir()
	os.WriteFile(filepath.Join(pre, "deadbeef.json"), []byte("{}"), 0o644)
	_, err = New(pre, 4)
	if !asStale(err, &stale) || stale.Found != 0 {
		t.Fatalf("pre-marker store: err = %v, want *StaleStoreError{Found: 0}", err)
	}
}

func asStale(err error, target **StaleStoreError) bool {
	s, ok := err.(*StaleStoreError)
	if ok {
		*target = s
	}
	return ok
}
