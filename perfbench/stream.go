package main

import (
	"math/rand"
	"sync"

	"sortsynth/internal/isa"
)

// Request kinds of the serve-mix stream.
const (
	kindUniverse  = "universe"  // a spec baked into the universe (L0 hit)
	kindCache     = "cache"     // a spec cached in setup (kcache memory or disk hit)
	kindMiss      = "miss"      // a cheap live search outside the baked space
	kindPortfolio = "portfolio" // a portfolio race with a fresh seed
	kindBatch     = "batch"     // /v1/synthesize/batch over hit specs
	kindVerify    = "verify"    // /v1/verify of a known kernel or a broken one
	kindSortgen   = "sortgen"   // /v1/sortgen for a small fixed n
)

// synthBody is a /v1/synthesize request body.
type synthBody struct {
	ISA           string `json:"isa,omitempty"`
	N             int    `json:"n"`
	MaxLen        int    `json:"max_len,omitempty"`
	Backend       string `json:"backend,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
	DuplicateSafe bool   `json:"duplicate_safe,omitempty"`
	Objective     string `json:"objective,omitempty"`
	All           bool   `json:"all,omitempty"`
	MaxSolutions  int    `json:"max_solutions,omitempty"`
}

// verifyCase is a /v1/verify request body with the answer the benchmark's
// own checker gives for it.
type verifyCase struct {
	ISA         string `json:"isa"`
	N           int    `json:"n"`
	Program     string `json:"program"`
	WantCorrect bool   `json:"-"`
	WantDupSafe bool   `json:"-"`
}

// request is one entry of the serve-mix stream.
type request struct {
	Kind    string      `json:"kind"`
	Synth   *synthBody  `json:"synth,omitempty"`
	Batch   []synthBody `json:"batch,omitempty"`
	Verify  *verifyCase `json:"verify,omitempty"`
	SortN   int         `json:"sort_n,omitempty"`
	SortObj string      `json:"sort_objective,omitempty"`
	// Pair marks the first of two identical misses placed back to back,
	// so two clients ask for one fresh key at once and coalesce.
	Pair bool `json:"pair,omitempty"`
}

// Stream shape, per block of about forty requests. Hits dominate; each
// block adds one medium miss (every fifth one sent as a coalescing
// pair), one cheap enumeration miss, a portfolio miss every other block,
// and the batch, verify and sortgen traffic.
const (
	universePerBlock = 18
	cachePerBlock    = 12
	batchSpecs       = 8
	pairEvery        = 5
	portfolioEvery   = 2
	verifyPerBlock   = 2
	sortgenPerBlock  = 2
	maxSortN         = 40
	cheapMaxSols     = 64
)

// warmSpecs are cached by setup: minmax n=3 above the baked budgets. With
// the LRU at 16 entries most of them live on disk only.
func warmSpecs() []synthBody {
	var out []synthBody
	for ml := 11; ml < 11+48; ml++ {
		out = append(out, synthBody{ISA: "minmax", N: 3, MaxLen: ml})
	}
	return out
}

// mediumMisses is the key space of the medium misses (each 5–40 ms of
// search), one list per kind: every objective of cmov n=3 and the
// shortest objective of minmax n=4, with and without duplicate safety,
// under budgets beyond the baked ones. Each key misses once per server.
// (minmax n=4 under fastest or balanced ranks a large solution set and
// takes seconds.)
func mediumMisses() [][]synthBody {
	var out [][]synthBody
	for _, c := range []struct {
		isa   string
		n, lo int
		objs  []string
	}{{"cmov", 3, 14, []string{"", "fastest", "balanced"}}, {"minmax", 4, 15, []string{""}}} {
		for _, obj := range c.objs {
			for _, dup := range []bool{false, true} {
				var kind []synthBody
				for ml := c.lo; ml <= 250; ml++ {
					kind = append(kind, synthBody{ISA: c.isa, N: c.n, MaxLen: ml, Objective: obj, DuplicateSafe: dup})
				}
				out = append(out, kind)
			}
		}
	}
	return out
}

// streamGen produces the seeded request stream block by block: block b
// is a pure function of (seed, b, the baked spec list, the verify pool).
type streamGen struct {
	seed     int64
	universe []synthBody
	warm     []synthBody
	medium   [][]synthBody
	verify   []verifyCase
}

func newStreamGen(seed int64, universe []synthBody, verify []verifyCase) *streamGen {
	medium := mediumMisses()
	rng := rand.New(rand.NewSource(seed))
	for _, kind := range medium {
		rng.Shuffle(len(kind), func(i, j int) { kind[i], kind[j] = kind[j], kind[i] })
	}
	return &streamGen{seed: seed, universe: universe, warm: warmSpecs(), medium: medium, verify: verify}
}

func (g *streamGen) block(b int) []request {
	rng := rand.New(rand.NewSource(g.seed*1_000_003 + int64(b)))
	var units [][]request
	one := func(r request) { units = append(units, []request{r}) }
	for i := 0; i < universePerBlock; i++ {
		body := g.universe[rng.Intn(len(g.universe))]
		one(request{Kind: kindUniverse, Synth: &body})
	}
	for i := 0; i < cachePerBlock; i++ {
		body := g.warm[rng.Intn(len(g.warm))]
		one(request{Kind: kindCache, Synth: &body})
	}
	// The medium kinds take turns, so every stretch of the stream has the
	// same mix of search costs; the seed orders the budgets within a kind.
	kind := g.medium[b%len(g.medium)]
	med := kind[b/len(g.medium)%len(kind)]
	if b%pairEvery == 0 {
		first, second := med, med
		units = append(units, []request{{Kind: kindMiss, Synth: &first, Pair: true}, {Kind: kindMiss, Synth: &second}})
	} else {
		one(request{Kind: kindMiss, Synth: &med})
	}
	// Cheap misses walk the minmax n=3 enumeration space (243 budgets ×
	// 64 caps) from a seeded start; it never wraps within a run.
	k := int(uint64(g.seed)*7919+uint64(b)) % (243 * cheapMaxSols)
	one(request{Kind: kindMiss, Synth: &synthBody{ISA: "minmax", N: 3, All: true, MaxLen: 8 + k/cheapMaxSols, MaxSolutions: 1 + k%cheapMaxSols}})
	if b%portfolioEvery == 0 {
		one(request{Kind: kindPortfolio, Synth: &synthBody{N: 3, Backend: "portfolio", Seed: 1 + (g.seed&0xffff)<<32 + int64(b)}})
	}
	// Batch specs are baked ones: the server resolves a batch's specs
	// concurrently, so kcache specs in a batch would touch the LRU in a
	// racy order and its hit and eviction counts would not repeat.
	batch := make([]synthBody, batchSpecs)
	for i := range batch {
		batch[i] = g.universe[rng.Intn(len(g.universe))]
	}
	one(request{Kind: kindBatch, Batch: batch})
	for i := 0; i < verifyPerBlock; i++ {
		vc := g.verify[rng.Intn(len(g.verify))]
		one(request{Kind: kindVerify, Verify: &vc})
	}
	for i := 0; i < sortgenPerBlock; i++ {
		obj := "fastest"
		if rng.Intn(2) == 0 {
			obj = "shortest"
		}
		one(request{Kind: kindSortgen, SortN: 2 + rng.Intn(maxSortN-1), SortObj: obj})
	}
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	var out []request
	for _, u := range units {
		out = append(out, u...)
	}
	return out
}

// prefix returns the first n requests of the stream.
func (g *streamGen) prefix(n int) []request {
	var out []request
	for b := 0; len(out) < n; b++ {
		out = append(out, g.block(b)...)
	}
	return out[:n]
}

// cursor hands out the stream in order to any number of clients.
type cursor struct {
	mu   sync.Mutex
	gen  *streamGen
	buf  []request
	next int
	blk  int
	pos  int64
}

// take returns the next request and its position in the stream.
func (c *cursor) take() (request, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.next >= len(c.buf) {
		c.buf = append(c.buf[:0], c.gen.block(c.blk)...)
		c.blk++
		c.next = 0
	}
	r := c.buf[c.next]
	c.next++
	c.pos++
	return r, c.pos
}

// verifyPool builds the /v1/verify bodies: every contender kernel with an
// abstract program, and each one with its last instruction dropped
// (which breaks it), answered by the benchmark's own checker.
func verifyPool(contenders []contender) []verifyCase {
	var out []verifyCase
	for _, c := range contenders {
		for _, p := range []isa.Program{c.prog, c.prog[:len(c.prog)-1]} {
			out = append(out, verifyCase{
				ISA: c.isa, N: c.n, Program: p.FormatInline(c.n),
				WantCorrect: sortsAll(c.n, 1, p, false),
				WantDupSafe: sortsAll(c.n, 1, p, true),
			})
		}
	}
	return out
}

// contender is a registry kernel with its abstract program.
type contender struct {
	isa  string
	n    int
	prog isa.Program
}
