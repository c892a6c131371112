package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/kcache"
	"sortsynth/internal/state"
	"sortsynth/internal/tables"
	"sortsynth/internal/universe"
)

// probeReps is how many times each per-layer replay loop runs; the
// median is reported.
const probeReps = 5

// sink keeps the compiler from discarding replayed calls.
var sink uint64

// tableMachines are the machines whose distance tables set-up warms:
// every (ISA, n, test suite) the synthesis specs and the served specs
// search over.
func tableMachines() []*state.Machine {
	var ms []*state.Machine
	for _, kind := range []isa.Kind{isa.KindCmov, isa.KindMinMax} {
		for n := 2; n <= 4; n++ {
			for _, suite := range []state.Suite{state.SuitePermutations, state.SuiteWeakOrders} {
				ms = append(ms, state.NewMachineSuite(isa.New(kind, n, 1), suite))
			}
		}
	}
	return append(ms, state.NewMachine(isa.NewMinMax(5, 1)))
}

func warmTables(tr *tracer) time.Duration {
	ms := tableMachines()
	t0 := time.Now()
	for _, m := range ms {
		sp := tr.begin("tables.For", 0, 0)
		tables.For(m)
		sp.end()
	}
	return time.Since(t0)
}

// timeLoop runs body probeReps times and returns the median nanoseconds
// per operation, with one span around all repetitions.
func timeLoop(tr *tracer, name string, ops int, body func()) float64 {
	sp := tr.begin(name, 0, 0)
	defer sp.end()
	var per []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		body()
		per = append(per, float64(time.Since(t0))/float64(ops))
	}
	return median(per)
}

// stateProbe replays Machine.Apply, Canonicalize and HashKey over a
// seeded corpus of states reachable on the cmov n=4 machine (the largest
// machine synth-cold searches).
func stateProbe(seed int64, tr *tracer) map[string]float64 {
	set := isa.NewCmov(4, 1)
	m := state.NewMachine(set)
	instrs := set.Instrs()
	rng := rand.New(rand.NewSource(seed))
	var corpus []state.State
	for len(corpus) < 2048 {
		s := m.Initial()
		for d := 1 + rng.Intn(16); d > 0; d-- {
			s = m.Apply(nil, s, instrs[rng.Intn(len(instrs))])
			corpus = append(corpus, s)
		}
	}
	const perState = 8
	ins := make([]isa.Instr, len(corpus)*perState)
	for i := range ins {
		ins[i] = instrs[rng.Intn(len(instrs))]
	}
	out := make(map[string]float64)
	var dst state.State
	out["state.apply_ns"] = timeLoop(tr, "state.Apply", len(ins), func() {
		for i, s := range corpus {
			for k := 0; k < perState; k++ {
				dst = m.Apply(dst, s, ins[i*perState+k])
			}
		}
	})

	// Canonicalize sorts and dedups a raw successor; replay it on
	// shuffled copies of the corpus with a few repeated assignments.
	raw := make([]state.State, len(corpus))
	for i, s := range corpus {
		r := append(s.Clone(), s[rng.Intn(len(s))], s[rng.Intn(len(s))])
		rng.Shuffle(len(r), func(a, b int) { r[a], r[b] = r[b], r[a] })
		raw[i] = r
	}
	work := make([]state.State, len(raw))
	for i := range raw {
		work[i] = make(state.State, len(raw[i]))
	}
	var canon []float64
	sp := tr.begin("state.Canonicalize", 0, 0)
	for r := 0; r < probeReps; r++ {
		for i := range raw {
			work[i] = append(work[i][:0], raw[i]...)
		}
		t0 := time.Now()
		for i := range work {
			state.Canonicalize(&work[i])
		}
		canon = append(canon, float64(time.Since(t0))/float64(len(work)))
	}
	sp.end()
	out["state.canon_ns"] = median(canon)

	out["state.hash_ns"] = timeLoop(tr, "state.HashKey", len(corpus)*perState, func() {
		for k := 0; k < perState; k++ {
			for _, s := range corpus {
				sink += state.HashKey(s).Lo
			}
		}
	})
	return out
}

// serveKeys are the cache keys the serve-mix synthesize requests map to:
// the baked specs, the specs cached in setup and the medium misses. The
// universe.Spec key is the one the server derives for a default-config
// enum request.
func serveKeys(baked []kcache.Key) ([]kcache.Key, error) {
	keys := append([]kcache.Key(nil), baked...)
	bodies := warmSpecs()
	for _, kind := range mediumMisses() {
		bodies = append(bodies, kind...)
	}
	for _, b := range bodies {
		obj, err := enum.ParseObjective(b.Objective)
		if err != nil {
			return nil, err
		}
		keys = append(keys, universe.Spec{ISA: b.ISA, N: b.N, M: 1, Backend: "enum", Budget: b.MaxLen, DuplicateSafe: b.DuplicateSafe, Objective: obj}.Key())
	}
	return keys, nil
}

// kcacheProbe replays the serve-mix keys through a private two-tier
// cache: Put (memory and disk), Get from memory, Get from disk (a cache
// of one entry misses its memory tier on every new key), and Key.Hash.
func kcacheProbe(dir string, keys []kcache.Key, kernel string, tr *tracer) (map[string]float64, error) {
	d, err := os.MkdirTemp(dir, "kprobe-")
	if err != nil {
		return nil, err
	}
	c, err := kcache.New(d, len(keys))
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sp := tr.begin("kcache.Put", 0, 0)
	t0 := time.Now()
	for _, k := range keys {
		if err := c.Put(k, &kcache.Entry{Backend: "enum", Program: kernel, Length: 11, SolutionCount: 1}); err != nil {
			sp.end()
			return nil, err
		}
	}
	out["kcache.put_disk_us"] = float64(time.Since(t0)) / float64(len(keys)) / 1e3
	sp.end()

	var missing error
	out["kcache.get_mem_ns"] = timeLoop(tr, "kcache.Get", len(keys), func() {
		for _, k := range keys {
			if _, ok := c.Get(k); !ok {
				missing = fmt.Errorf("kcache probe: key %s missing from memory", k.Hash())
			}
		}
	})
	disk, err := kcache.New(d, 1)
	if err != nil {
		return nil, err
	}
	out["kcache.get_disk_us"] = timeLoop(tr, "kcache.Get", len(keys), func() {
		for _, k := range keys {
			if _, ok := disk.Get(k); !ok {
				missing = fmt.Errorf("kcache probe: key %s missing from disk", k.Hash())
			}
		}
	}) / 1e3
	if st := disk.Stats(); st.MemHits != 0 {
		missing = fmt.Errorf("kcache probe: %d disk lookups were served from memory", st.MemHits)
	}
	out["kcache.key_hash_ns"] = timeLoop(tr, "kcache.Key.Hash", len(keys)*20, func() {
		for r := 0; r < 20; r++ {
			for _, k := range keys {
				sink += uint64(len(k.Hash()))
			}
		}
	})
	return out, missing
}

// universeProbe replays Store.Lookup over every baked key.
func universeProbe(store *universe.Store, keys []kcache.Key, tr *tracer) float64 {
	const reps = 200
	return timeLoop(tr, "universe.Lookup", len(keys)*reps, func() {
		for r := 0; r < reps; r++ {
			for _, k := range keys {
				if _, ok := store.Lookup(k); ok {
					sink++
				}
			}
		}
	})
}

// rankProbe times the objective re-rank of a whole solution set.
func rankProbe(set *isa.Set, progs []isa.Program, tr *tracer) (float64, error) {
	var err error
	ms := timeLoop(tr, "uarch.RankPrograms", 1, func() {
		_, _, err = enum.RankPrograms(set, progs, enum.ObjectiveFastest, "")
	}) / 1e6
	return ms, err
}
