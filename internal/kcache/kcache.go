package kcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Entry is one cached synthesis artifact.
type Entry struct {
	// Key is the canonical key string (see Key.Canonical). It is stored
	// with the payload so a loaded entry can be verified against the
	// requested key: a hash collision or a misfiled entry is a miss, not
	// a wrong answer.
	Key string `json:"key"`

	// Backend is the name of the synthesizer that produced the kernel.
	Backend string `json:"backend,omitempty"`

	// NoKernel marks a negative artifact: a proof, by exhaustive search
	// or a proved optimum, that no kernel exists within the key's length
	// bound (never a spent budget). Only the baked universe records
	// negatives — the live cache tiers never store them — so a mounted
	// universe can answer hopeless budgets without re-running the
	// refutation. Length holds the refuted bound.
	NoKernel bool `json:"no_kernel,omitempty"`

	// Objective names the ranking objective the kernel was picked under
	// ("" on shortest entries, which predate — and are unchanged by —
	// the objective field).
	Objective string `json:"objective,omitempty"`
	// Cost is the winner's primary uarch metric under a non-shortest
	// objective (enum.Result.Cost); 0 on shortest entries.
	Cost float64 `json:"cost,omitempty"`
	// RerankTruncated marks a ranked kernel picked from a prefix of an
	// optimal set too large to rank whole (enum.Result.RerankTruncated).
	RerankTruncated bool `json:"rerank_truncated,omitempty"`

	// Program is the synthesized kernel in the textual ISA syntax.
	Program string `json:"program"`
	// Programs holds the enumerated kernels in AllSolutions mode.
	Programs []string `json:"programs,omitempty"`
	Length   int      `json:"length"`
	// SolutionCount is the exact optimal-program count (AllSolutions).
	SolutionCount int64 `json:"solution_count"`

	// Original search statistics, kept so cache hits can report what the
	// miss cost.
	Expanded  int64 `json:"expanded"`
	Generated int64 `json:"generated"`
	ElapsedNS int64 `json:"elapsed_ns"`
}

// diskEntry is the on-disk envelope: the entry plus an integrity checksum
// over its canonical JSON encoding.
type diskEntry struct {
	Entry Entry  `json:"entry"`
	Sum   string `json:"sum"`
}

func entrySum(e *Entry) (string, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:]), nil
}

// Stats counts cache outcomes since construction.
type Stats struct {
	MemHits  int64 `json:"mem_hits"`
	DiskHits int64 `json:"disk_hits"`
	Misses   int64 `json:"misses"`
	// Corrupt counts on-disk entries rejected by the checksum or key
	// verification; each is also counted as a miss.
	Corrupt   int64 `json:"corrupt"`
	Evictions int64 `json:"evictions"`
}

// Cache is the two-tier kernel cache. The memory tier is a bounded LRU;
// the disk tier (optional, dir != "") is unbounded and content-addressed
// by Key.Hash. All methods are safe for concurrent use.
type Cache struct {
	dir string
	cap int

	mu    sync.Mutex
	ll    *list.List // front = most recently used; values are *lruItem
	items map[string]*list.Element
	stats Stats
}

type lruItem struct {
	hash  string
	entry *Entry
}

// versionMarker is the disk store's key-scheme stamp, written next to
// the entries. A store whose marker disagrees with KeyVersion — or a
// non-empty store predating the marker — fails loudly at mount time:
// every lookup in it would miss silently (the canonical text changed),
// which is indistinguishable from a cold cache until the bill arrives.
const versionMarker = "KEYVERSION"

// New returns a cache holding at most capacity entries in memory
// (capacity <= 0 means 256). dir is the on-disk store directory, created
// if missing; an empty dir disables the disk tier. A directory holding
// entries written under an older key scheme is rejected with a
// StaleStoreError telling the operator to clear it or re-bake.
func New(dir string, capacity int) (*Cache, error) {
	if capacity <= 0 {
		capacity = 256
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("kcache: %w", err)
		}
		if err := checkVersion(dir); err != nil {
			return nil, err
		}
	}
	return &Cache{
		dir:   dir,
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}, nil
}

// StaleStoreError reports a disk store written under a different key
// scheme than this build canonicalizes.
type StaleStoreError struct {
	Dir string
	// Found is the store's recorded key version; 0 means the store
	// predates version markers (necessarily ≤ v2).
	Found int
	Want  int
}

func (e *StaleStoreError) Error() string {
	found := "an unmarked (pre-v3) scheme"
	if e.Found != 0 {
		found = fmt.Sprintf("key scheme v%d", e.Found)
	}
	return fmt.Sprintf("kcache: disk store %s was written under %s, this build canonicalizes v%d — clear the directory or re-bake it",
		e.Dir, found, e.Want)
}

// checkVersion enforces the key-scheme stamp on dir: a fresh (or
// entry-free) directory is stamped with the current KeyVersion; a
// stamped directory must match it; an unstamped directory that already
// holds entries is a pre-marker store and is rejected.
func checkVersion(dir string) error {
	marker := filepath.Join(dir, versionMarker)
	blob, err := os.ReadFile(marker)
	switch {
	case err == nil:
		found, perr := strconv.Atoi(strings.TrimSpace(string(blob)))
		if perr != nil || found != KeyVersion {
			return &StaleStoreError{Dir: dir, Found: found, Want: KeyVersion}
		}
		return nil
	case os.IsNotExist(err):
		entries, gerr := filepath.Glob(filepath.Join(dir, "*.json"))
		if gerr == nil && len(entries) > 0 {
			return &StaleStoreError{Dir: dir, Want: KeyVersion}
		}
		if werr := os.WriteFile(marker, []byte(strconv.Itoa(KeyVersion)+"\n"), 0o644); werr != nil {
			return fmt.Errorf("kcache: %w", werr)
		}
		return nil
	default:
		return fmt.Errorf("kcache: %w", err)
	}
}

// Get returns the cached entry for key, consulting memory first and then
// disk. A disk hit is promoted into the memory tier. Corrupt or misfiled
// disk entries are removed and reported as misses.
func (c *Cache) Get(key Key) (*Entry, bool) {
	canonical := key.Canonical()
	hash := key.Hash()

	c.mu.Lock()
	if el, ok := c.items[hash]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruItem).entry
		c.stats.MemHits++
		c.mu.Unlock()
		return e, true
	}
	c.mu.Unlock()

	e, err := c.loadDisk(hash, canonical)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.stats.Corrupt++
		c.stats.Misses++
		os.Remove(c.path(hash)) // quarantine by deletion; it will be re-synthesized
		return nil, false
	}
	if e == nil {
		c.stats.Misses++
		return nil, false
	}
	c.stats.DiskHits++
	c.insertLocked(hash, e)
	return e, true
}

// Put stores the entry under key in both tiers. The entry's Key field is
// overwritten with the canonical key string.
func (c *Cache) Put(key Key, e *Entry) error {
	e.Key = key.Canonical()
	hash := key.Hash()

	c.mu.Lock()
	c.insertLocked(hash, e)
	c.mu.Unlock()

	if c.dir == "" {
		return nil
	}
	sum, err := entrySum(e)
	if err != nil {
		return fmt.Errorf("kcache: %w", err)
	}
	blob, err := json.MarshalIndent(diskEntry{Entry: *e, Sum: sum}, "", "\t")
	if err != nil {
		return fmt.Errorf("kcache: %w", err)
	}
	// Write-then-rename so readers never observe a torn entry.
	tmp, err := os.CreateTemp(c.dir, "."+hash+".tmp*")
	if err != nil {
		return fmt.Errorf("kcache: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return fmt.Errorf("kcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("kcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(hash)); err != nil {
		return fmt.Errorf("kcache: %w", err)
	}
	return nil
}

// Len returns the number of entries in the memory tier.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash+".json")
}

// insertLocked adds or refreshes a memory-tier entry, evicting from the
// LRU tail past capacity. c.mu must be held.
func (c *Cache) insertLocked(hash string, e *Entry) {
	if el, ok := c.items[hash]; ok {
		el.Value.(*lruItem).entry = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[hash] = c.ll.PushFront(&lruItem{hash: hash, entry: e})
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*lruItem).hash)
		c.stats.Evictions++
	}
}

// loadDisk reads and verifies the on-disk entry for hash. It returns
// (nil, nil) when the disk tier is off or the file does not exist, and a
// non-nil error for unreadable, corrupt, or misfiled entries.
func (c *Cache) loadDisk(hash, canonical string) (*Entry, error) {
	if c.dir == "" {
		return nil, nil
	}
	blob, err := os.ReadFile(c.path(hash))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var de diskEntry
	if err := json.Unmarshal(blob, &de); err != nil {
		return nil, fmt.Errorf("kcache: corrupt entry %s: %w", hash, err)
	}
	sum, err := entrySum(&de.Entry)
	if err != nil {
		return nil, err
	}
	if sum != de.Sum {
		return nil, fmt.Errorf("kcache: checksum mismatch for %s", hash)
	}
	if de.Entry.Key != canonical {
		return nil, fmt.Errorf("kcache: entry %s holds key %q, want %q", hash, de.Entry.Key, canonical)
	}
	return &de.Entry, nil
}
