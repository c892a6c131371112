package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"sortsynth"
	"sortsynth/internal/isa"
	"sortsynth/internal/kernels"
)

// The spec list carries the paper's reference outcomes.
func TestSpecReferences(t *testing.T) {
	counts := map[string]int64{"cmov3-all": 5602, "minmax3-all": 604, "cmov3-fastest": 234}
	seen := map[string]bool{}
	perClass := map[string]int{}
	for _, sp := range synthSpecs() {
		if seen[sp.Name] {
			t.Errorf("duplicate spec %s", sp.Name)
		}
		seen[sp.Name] = true
		perClass[sp.Class]++
		lstar, ok := sortsynth.KnownOptimalLength(sp.set())
		if !ok {
			t.Fatalf("%s: no known optimal length", sp.Name)
		}
		if sp.Class == classProof {
			if sp.WantLen != -1 || sp.Opt.MaxLen != lstar-1 || !sp.Opt.AllSolutions {
				t.Errorf("%s: want an exhaustive proof at L*-1 = %d, got MaxLen %d WantLen %d", sp.Name, lstar-1, sp.Opt.MaxLen, sp.WantLen)
			}
		} else if sp.WantLen != lstar || sp.Opt.MaxLen != lstar {
			t.Errorf("%s: WantLen %d MaxLen %d, want the known optimum %d", sp.Name, sp.WantLen, sp.Opt.MaxLen, lstar)
		}
		if sp.WantCount != counts[sp.Name] {
			t.Errorf("%s: WantCount %d, want %d", sp.Name, sp.WantCount, counts[sp.Name])
		}
	}
	for _, c := range classes {
		if perClass[c] == 0 {
			t.Errorf("class %s has no specs", c)
		}
	}
	for _, name := range []string{"cmov4-w1", "cmov4-w2", "cmov4-dupsafe", "minmax5", "cmov3-proof10", "minmax4-proof14"} {
		if !seen[name] {
			t.Errorf("spec %s missing", name)
		}
	}
}

// The benchmark's checker accepts the kernels the program ships and
// rejects broken ones, including one that sorts only because the
// scratch register starts at 0.
func TestChecker(t *testing.T) {
	for n := 3; n <= 5; n++ {
		k, _ := kernels.Lookup("enum", n)
		if !sortsAll(n, 1, k.Prog, false) {
			t.Errorf("enum n=%d kernel rejected", n)
		}
		if sortsAll(n, 1, k.Prog[:len(k.Prog)-1], false) {
			t.Errorf("enum n=%d kernel without its last instruction accepted", n)
		}
	}
	leak, err := isa.ParseProgram("max s1 r1; min r1 r2; max r2 s1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sortsAll(2, 1, leak, false) || sortsAll(2, 1, leak, true) {
		t.Error("scratch-reading kernel: want accepted on permutations, rejected on all integers")
	}
	if movOnly, _ := isa.ParseProgram("mov r1 r2", 2); sortsAll(2, 1, movOnly, false) {
		t.Error("value-destroying program accepted")
	}
}

// The same seed gives a byte-identical request stream and input corpus;
// another seed gives different ones.
func TestSeededInputs(t *testing.T) {
	baked := []synthBody{{ISA: "cmov", N: 3, MaxLen: 11}, {ISA: "minmax", N: 2, MaxLen: 4, Objective: "fastest"}}
	var cs []contender
	for _, k := range kernels.Contenders(3) {
		if k.Prog != nil && k.Set.Kind == isa.KindCmov {
			cs = append(cs, contender{isa: "cmov", n: 3, prog: k.Prog})
		}
	}
	stream := func(seed int64) []byte {
		blob, err := json.Marshal(newStreamGen(seed, baked, verifyPool(cs)).prefix(500))
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if !bytes.Equal(stream(7), stream(7)) {
		t.Error("seed 7 gave two different request streams")
	}
	if bytes.Equal(stream(7), stream(8)) {
		t.Error("seeds 7 and 8 gave the same request stream")
	}

	corpus := func(seed int64) ([]sortCase, [][]int) {
		si, err := newSortInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		var ks [][]int
		for _, k := range si.kernels {
			ks = append(ks, k.In)
		}
		return si.cases, ks
	}
	c1, k1 := corpus(7)
	c2, k2 := corpus(7)
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(k1, k2) {
		t.Error("seed 7 gave two different sort corpora")
	}
	if c3, _ := corpus(8); reflect.DeepEqual(c1, c3) {
		t.Error("seeds 7 and 8 gave the same sort corpus")
	}
}
