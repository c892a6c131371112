package isa

import (
	"math"
	"strings"
	"testing"
)

func TestOpString(t *testing.T) {
	want := map[Op]string{Mov: "mov", Cmp: "cmp", Cmovl: "cmovl", Cmovg: "cmovg", Min: "min", Max: "max"}
	for op, name := range want {
		if op.String() != name {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), name)
		}
	}
	if got := Op(250).String(); !strings.Contains(got, "250") {
		t.Errorf("invalid op string = %q", got)
	}
}

func TestOpProperties(t *testing.T) {
	if !Cmp.WritesFlags() || Mov.WritesFlags() {
		t.Error("WritesFlags wrong")
	}
	if !Cmovl.ReadsFlags() || !Cmovg.ReadsFlags() || Cmp.ReadsFlags() || Min.ReadsFlags() {
		t.Error("ReadsFlags wrong")
	}
	if Cmp.WritesDst() || !Mov.WritesDst() || !Min.WritesDst() || !Max.WritesDst() {
		t.Error("WritesDst wrong")
	}
}

func TestCmovSetSize(t *testing.T) {
	// For R = n+m registers: mov/cmovl/cmovg each R(R-1), cmp R(R-1)/2.
	for _, tc := range []struct{ n, m, want int }{
		{2, 1, 3*3*2 + 3}, // R=3: 18 + 3 = 21
		{3, 1, 3*4*3 + 6}, // R=4: 36 + 6 = 42
		{4, 1, 3*5*4 + 10},
		{5, 1, 3*6*5 + 15},
	} {
		s := NewCmov(tc.n, tc.m)
		if got := s.NumInstrs(); got != tc.want {
			t.Errorf("cmov n=%d m=%d: NumInstrs = %d, want %d", tc.n, tc.m, got, tc.want)
		}
	}
}

func TestMinMaxSetSize(t *testing.T) {
	s := NewMinMax(3, 1)
	if got, want := s.NumInstrs(), 3*4*3; got != want {
		t.Errorf("minmax n=3 m=1: NumInstrs = %d, want %d", got, want)
	}
}

func TestCmpSymmetryRestriction(t *testing.T) {
	s := NewCmov(3, 1)
	for _, in := range s.Instrs() {
		if in.Dst == in.Src {
			t.Errorf("degenerate instruction %v enumerated", in)
		}
		if in.Op == Cmp && in.Dst > in.Src {
			t.Errorf("cmp with dst > src enumerated: %v", in)
		}
	}
}

func TestInstrID(t *testing.T) {
	s := NewCmov(3, 1)
	for i, in := range s.Instrs() {
		if got := s.InstrID(in); got != i {
			t.Errorf("InstrID(%v) = %d, want %d", in, got, i)
		}
	}
	if got := s.InstrID(Instr{Op: Cmp, Dst: 2, Src: 1}); got != -1 {
		t.Errorf("InstrID of illegal cmp = %d, want -1", got)
	}
	if got := s.InstrID(Instr{Op: Min, Dst: 0, Src: 1}); got != -1 {
		t.Errorf("InstrID of foreign-op instruction = %d, want -1", got)
	}
}

func TestRawProgramSpaceLog10(t *testing.T) {
	// The paper's §5.1 table: n=3 → ≈10^19.9, n=4 → 10^40.0,
	// n=5 → ≈10^71.2, n=6 → ≈10^108.4 (all with m=1).
	for _, tc := range []struct {
		n, m, length int
		want         float64
	}{
		{3, 1, 11, 19.9},
		{4, 1, 20, 40.0},
		{5, 1, 33, 71.2},
		{6, 2, 45, 108.4}, // the paper's n=6 row uses two scratch registers
	} {
		s := NewCmov(tc.n, tc.m)
		got := s.RawProgramSpaceLog10(tc.length)
		if math.Abs(got-tc.want) > 0.05 {
			t.Errorf("n=%d ℓ=%d: log10 space = %.2f, want %.1f", tc.n, tc.length, got, tc.want)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	src := "mov s1 r1\ncmp r2 r1\ncmovl r1 r2\ncmovl r2 s1"
	p, err := ParseProgram(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 4 {
		t.Fatalf("parsed %d instructions, want 4", len(p))
	}
	if got := p.Format(2); got != src {
		t.Errorf("Format = %q, want %q", got, src)
	}
	q, err := ParseProgram(p.FormatInline(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(q) {
		t.Errorf("inline round trip mismatch: %v vs %v", p, q)
	}
}

func TestParseCommaAndComments(t *testing.T) {
	p, err := ParseProgram("  cmp r1, r2  # compare\n\n cmovg r2, r1\n", 2)
	if err != nil {
		t.Fatal(err)
	}
	want := Program{{Op: Cmp, Dst: 0, Src: 1}, {Op: Cmovg, Dst: 1, Src: 0}}
	if !p.Equal(want) {
		t.Errorf("parsed %v, want %v", p, want)
	}
}

func TestParseVectorMnemonics(t *testing.T) {
	p, err := ParseProgram("movdqa s1 r1; pminud r1 r2; pmaxud r2 s1", 2)
	if err != nil {
		t.Fatal(err)
	}
	want := Program{{Op: Mov, Dst: 2, Src: 0}, {Op: Min, Dst: 0, Src: 1}, {Op: Max, Dst: 1, Src: 2}}
	if !p.Equal(want) {
		t.Errorf("parsed %v, want %v", p, want)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"bogus r1 r2",
		"mov r1",
		"mov r9 r1", // out of range for n=2
		"mov x1 r1",
		"mov r r1",
		"mov r0 r1",
	} {
		if _, err := ParseProgram(bad, 2); err == nil {
			t.Errorf("ParseProgram(%q) succeeded, want error", bad)
		}
	}
}

func TestProgramHelpers(t *testing.T) {
	p := Program{{Op: Mov, Dst: 2, Src: 0}, {Op: Cmp, Dst: 0, Src: 1}, {Op: Cmovl, Dst: 1, Src: 2}}
	q := p.Clone()
	q[0].Dst = 1
	if p[0].Dst != 2 {
		t.Error("Clone aliases underlying array")
	}
	c := p.OpCounts()
	if c[Mov] != 1 || c[Cmp] != 1 || c[Cmovl] != 1 || c[Cmovg] != 0 {
		t.Errorf("OpCounts = %v", c)
	}
	if p.Equal(q) {
		t.Error("Equal ignored difference")
	}
	if !p.Equal(p.Clone()) {
		t.Error("Equal rejects identical clone")
	}
}

func TestRegName(t *testing.T) {
	if RegName(0, 3) != "r1" || RegName(2, 3) != "r3" || RegName(3, 3) != "s1" || RegName(4, 3) != "s2" {
		t.Error("RegName wrong")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(13 regs) did not panic")
		}
	}()
	New(KindCmov, 13, 0)
}

func TestKnownOptimalLength(t *testing.T) {
	for _, tc := range []struct {
		set  *Set
		want int
		ok   bool
	}{
		{NewCmov(2, 1), 4, true},
		{NewCmov(3, 1), 11, true},
		{NewCmov(4, 1), 20, true},
		{NewCmov(5, 1), 33, true},
		{NewMinMax(2, 1), 3, true},
		{NewMinMax(3, 1), 8, true},
		{NewMinMax(4, 1), 15, true},
		{NewMinMax(5, 1), 26, true},
		{NewCmov(3, 2), 0, false},
		{NewMinMax(6, 1), 0, false},
	} {
		if got, ok := KnownOptimalLength(tc.set); got != tc.want || ok != tc.ok {
			t.Errorf("KnownOptimalLength(%v) = %d, %v; want %d, %v", tc.set, got, ok, tc.want, tc.ok)
		}
	}
}
