// Package isa models the two assembly instruction sets used for sorting
// kernel synthesis (paper §2.2):
//
//   - the cmov ISA with commands mov, cmp, cmovl, cmovg operating on
//     general-purpose registers and lt/gt flags, and
//   - the min/max ISA with commands mov, min, max operating on vector
//     registers (movdqa/pminud/pmaxud on x86) without flags.
//
// A machine has n sorted registers r1..rn holding the values to sort and
// m scratch registers s1..sm. All instructions take two register operands
// and are written "op dst src" (for cmp, the operands are the two compared
// registers and the flags are the destination).
package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Op identifies an instruction opcode.
type Op uint8

// Opcodes of both instruction sets.
const (
	Mov   Op = iota // mov dst src:   dst ← src
	Cmp             // cmp a b:       lt ← a<b, gt ← a>b
	Cmovl           // cmovl dst src: if lt then dst ← src
	Cmovg           // cmovg dst src: if gt then dst ← src
	Min             // min dst src:   dst ← min(dst, src)
	Max             // max dst src:   dst ← max(dst, src)
	NumOps
)

var opNames = [NumOps]string{"mov", "cmp", "cmovl", "cmovg", "min", "max"}

// String returns the assembly mnemonic of the opcode.
func (o Op) String() string {
	if o >= NumOps {
		return fmt.Sprintf("op(%d)", uint8(o))
	}
	return opNames[o]
}

// ReadsFlags reports whether the opcode reads the lt/gt flags.
func (o Op) ReadsFlags() bool { return o == Cmovl || o == Cmovg }

// WritesFlags reports whether the opcode writes the lt/gt flags.
func (o Op) WritesFlags() bool { return o == Cmp }

// WritesDst reports whether the opcode (potentially) writes its first
// register operand.
func (o Op) WritesDst() bool { return o != Cmp }

// Instr is a single two-operand instruction. Dst and Src are register
// indices: 0..n-1 are the sorted registers r1..rn, n..n+m-1 are the
// scratch registers s1..sm.
type Instr struct {
	Op       Op
	Dst, Src uint8
}

// Program is a straight-line sequence of instructions.
type Program []Instr

// Clone returns a deep copy of p.
func (p Program) Clone() Program {
	q := make(Program, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q are syntactically identical.
func (p Program) Equal(q Program) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// OpCounts returns how often each opcode occurs in p.
func (p Program) OpCounts() [NumOps]int {
	var c [NumOps]int
	for _, in := range p {
		c[in.Op]++
	}
	return c
}

// RegName returns the assembly name of register index r on a machine with
// n sorted registers: r1..rn for 0..n-1 and s1..sm beyond.
func RegName(r uint8, n int) string {
	var buf [8]byte
	return string(appendReg(buf[:0], r, n))
}

func appendReg(b []byte, r uint8, n int) []byte {
	if int(r) < n {
		return strconv.AppendInt(append(b, 'r'), int64(r)+1, 10)
	}
	return strconv.AppendInt(append(b, 's'), int64(r)-int64(n)+1, 10)
}

// appendTo appends the instruction's text, as Format renders it, to b.
func (in Instr) appendTo(b []byte, n int) []byte {
	b = append(b, in.Op.String()...)
	b = appendReg(append(b, ' '), in.Dst, n)
	return appendReg(append(b, ' '), in.Src, n)
}

// Format renders the instruction with register names for a machine with n
// sorted registers, e.g. "cmovl r1 s1".
func (in Instr) Format(n int) string {
	var buf [24]byte
	return string(in.appendTo(buf[:0], n))
}

// Format renders the program one instruction per line.
func (p Program) Format(n int) string {
	return p.format(n, "\n")
}

// FormatInline renders the program on one line, instructions separated by
// "; ".
func (p Program) FormatInline(n int) string {
	return p.format(n, "; ")
}

func (p Program) format(n int, sep string) string {
	var b strings.Builder
	b.Grow(len(p) * (len("cmovl r10 s10") + len(sep)))
	var buf [24]byte
	for i, in := range p {
		if i > 0 {
			b.WriteString(sep)
		}
		b.Write(in.appendTo(buf[:0], n))
	}
	return b.String()
}
