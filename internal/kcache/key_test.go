package kcache

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"sortsynth/internal/enum"
)

// referenceCanonical is the fmt-based formatting the append path
// replaced; the two must stay byte-identical forever, or every persisted
// artifact (disk-tier entries, baked universes) silently misses. The
// w= and erase= segments are derived: every key has weight 1, and every
// enum search runs the value-erasure check. prof= names the one uarch
// model for ranked objectives and is empty for shortest.
func referenceCanonical(k Key) string {
	o := k.Opt
	cutK := o.CutK
	if o.Cut == enum.CutNone {
		cutK = 0
	}
	be := k.Backend
	if be == "" {
		be = "enum"
	}
	prof := ""
	if o.Objective != enum.ObjectiveShortest {
		prof = "big-ooo"
	}
	return fmt.Sprintf(
		"v3|backend=%s|seed=%d|isa=%s|n=%d|m=%d|heur=%d|w=1|cut=%d|k=%s|dist=%t|guide=%t|erase=%t|maxlen=%d|all=%t|maxsols=%d|dupsafe=%t|obj=%s|prof=%s",
		be, k.Seed,
		k.ISA, k.N, k.M,
		o.Heuristic,
		o.Cut,
		strconv.FormatFloat(cutK, 'g', -1, 64),
		o.UseDistPrune, o.UseActionGuide, be == "enum",
		o.MaxLen,
		o.AllSolutions, o.MaxSolutions,
		o.DuplicateSafe,
		o.Objective, prof,
	)
}

func testKeys() []Key {
	return []Key{
		{},
		{ISA: "cmov", N: 3, M: 1, Opt: enum.ConfigBest()},
		{ISA: "minmax", N: 5, M: 2, Backend: "smt", Seed: -42,
			Opt: enum.Options{MaxLen: 26}},
		{ISA: "cmov", N: 4, M: 1, Backend: "stoke", Seed: 1 << 60,
			Opt: enum.Options{MaxLen: 20, DuplicateSafe: true}},
		{ISA: "cmov", N: 2, M: 1, Opt: enum.Options{
			Heuristic: enum.HeurPermCount, Cut: enum.CutAdditive, CutK: 0.125,
			AllSolutions: true, MaxSolutions: 1000,
		}},
		{ISA: "minmax", N: 3, M: 1, Opt: enum.Options{
			Heuristic: enum.HeurDistMax, Cut: enum.CutFactor, CutK: 2,
			UseDistPrune: true, MaxLen: 8,
		}},
		{ISA: "cmov", N: 3, M: 1, Opt: enum.Options{
			MaxLen: 11, Objective: enum.ObjectiveFastest,
		}},
		{ISA: "cmov", N: 3, M: 1, Opt: enum.Options{
			MaxLen: 11, Objective: enum.ObjectiveBalanced,
		}},
	}
}

func TestCanonicalMatchesReferenceFormatting(t *testing.T) {
	for _, k := range testKeys() {
		want := referenceCanonical(k)
		if got := k.Canonical(); got != want {
			t.Errorf("Canonical drifted from the reference formatting:\n got %q\nwant %q", got, want)
		}
	}
}

func TestSumMatchesHash(t *testing.T) {
	for _, k := range testKeys() {
		sum := k.Sum()
		want := sha256.Sum256([]byte(k.Canonical()))
		if sum != want {
			t.Errorf("Sum() != sha256(Canonical()) for %+v", k)
		}
		if k.Hash() != fmt.Sprintf("%x", sum) {
			t.Errorf("Hash() is not the hex of Sum() for %+v", k)
		}
	}
}

func TestKeyVersionMatchesCanonicalPrefix(t *testing.T) {
	prefix := fmt.Sprintf("v%d|", KeyVersion)
	if c := (Key{}).Canonical(); !strings.HasPrefix(c, prefix) {
		t.Errorf("canonical %q does not start with %q; bump KeyVersion with the scheme", c, prefix)
	}
}

func TestSumDoesNotAllocate(t *testing.T) {
	k := Key{ISA: "cmov", N: 4, M: 1, Opt: enum.ConfigBest()}
	k.Opt.MaxLen = 20
	var sink [sha256.Size]byte
	if allocs := testing.AllocsPerRun(100, func() { sink = k.Sum() }); allocs != 0 {
		t.Errorf("Sum allocates %.1f objects per call, want 0", allocs)
	}
	_ = sink
}
