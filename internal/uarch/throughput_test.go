package uarch_test

import (
	"math/rand"
	"testing"

	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/uarch"
)

// TestThroughputMatchesReference holds Throughput's steady-state
// shortcut to the plain 64-iteration simulation, bit for bit: on every
// optimal program of the small machines (the sets the objectives rank),
// and on random programs of length 1–32 on every machine n=2..6,
// m=1..2 — both drawn from the machine's instruction set and
// movless mixes of cmp, cmov, min and max, whose port masks differ.
func TestThroughputMatchesReference(t *testing.T) {
	optimal := []struct {
		set    *isa.Set
		length int
		opt    enum.Options
	}{
		{isa.NewCmov(3, 1), 11, enum.ConfigAllSolutions()},
		{isa.NewCmov(3, 2), 11, enum.ConfigAllSolutions()},
		{isa.NewMinMax(3, 1), 8, enum.ConfigAllSolutions()},
		// The whole set holds 2,203,872 programs; the ranked one
		// (ConfigBest, which cuts) holds 39,624.
		{isa.NewMinMax(4, 1), 15, bestAll()},
	}
	checked := 0
	for _, sp := range optimal {
		opt := sp.opt
		opt.MaxLen = sp.length
		res := enum.Run(sp.set, opt)
		if res.Length != sp.length || int64(len(res.Programs)) != res.SolutionCount {
			t.Fatalf("%v: length %d, %d of %d programs", sp.set, res.Length, len(res.Programs), res.SolutionCount)
		}
		for _, p := range res.Programs {
			checkThroughput(t, sp.set, p)
		}
		checked += len(res.Programs)
	}

	perKind := 2500 // programs per machine and kind: 100,000 in all
	if testing.Short() {
		perKind = 250
	}
	rng := rand.New(rand.NewSource(1))
	for n := 2; n <= 6; n++ {
		for m := 1; m <= 2; m++ {
			for _, set := range []*isa.Set{isa.NewCmov(n, m), isa.NewMinMax(n, m)} {
				for range perKind {
					checkThroughput(t, set, randomProgram(rng, set, false))
					checkThroughput(t, set, randomProgram(rng, set, true))
					checked += 2
				}
			}
		}
	}
	t.Logf("%d programs match the reference", checked)
}

func bestAll() enum.Options {
	opt := enum.ConfigBest()
	opt.AllSolutions = true
	return opt
}

// movless are the port-using opcodes of both instruction sets.
var movless = []isa.Op{isa.Cmp, isa.Cmovl, isa.Cmovg, isa.Min, isa.Max}

// randomProgram returns a program of length 1–32: from set's
// instructions, or, if mixed, of cmp, cmov, min and max on set's
// registers.
func randomProgram(rng *rand.Rand, set *isa.Set, mixed bool) isa.Program {
	p := make(isa.Program, 1+rng.Intn(32))
	for i := range p {
		if mixed {
			p[i] = isa.Instr{Op: movless[rng.Intn(len(movless))], Dst: uint8(rng.Intn(set.Regs())), Src: uint8(rng.Intn(set.Regs()))}
		} else {
			p[i] = set.Instrs()[rng.Intn(set.NumInstrs())]
		}
	}
	return p
}

func checkThroughput(t *testing.T, set *isa.Set, p isa.Program) {
	t.Helper()
	if got, want := uarch.Throughput(set, p), uarch.RefThroughput(set, p); got != want {
		t.Fatalf("%v: Throughput(%s) = %v, reference %v", set, p.FormatInline(set.N), got, want)
	}
}

// FuzzThroughput compares Throughput with the reference simulation.
// The first byte picks the machine (n=2..6, m=1..2); every further byte
// is an instruction ID into the machine's cmov instructions followed by
// its min/max ones, so one program can mix both port masks.
func FuzzThroughput(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{7, 200, 13, 40, 41, 90, 91, 92, 5, 5, 5})
	f.Add([]byte{3, 250, 251, 252, 253, 254, 255, 250, 251, 252, 253, 254, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			return
		}
		n, m := 2+int(data[0])%5, 1+int(data[0]/5)%2
		set := isa.NewCmov(n, m)
		ids := append(append([]isa.Instr(nil), set.Instrs()...), isa.NewMinMax(n, m).Instrs()...)
		p := make(isa.Program, len(data)-1)
		for i, b := range data[1:] {
			p[i] = ids[int(b)%len(ids)]
		}
		checkThroughput(t, set, p)
	})
}

func BenchmarkThroughput(b *testing.B) {
	set := isa.NewCmov(3, 1)
	p, err := isa.ParseProgram("cmp r1 r2; mov s1 r1; cmovg r1 r2; cmovg r2 s1; cmp r2 r3; mov s1 r3; cmovg r3 r2; cmovg r2 s1; cmp r1 s1; cmovg r1 s1; cmovg s1 r1", 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = uarch.Throughput(set, p)
	}
}

var sink float64
