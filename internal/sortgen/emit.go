package sortgen

import (
	"fmt"
	"go/format"
	"go/token"
	"strings"

	"sortsynth/internal/isa"
)

// EmitOptions controls the rendered source. The zero value emits
// package "sorter", function "Sort<n>", element type int.
type EmitOptions struct {
	Package  string
	FuncName string
	// Elem is the element type of the emitted sorter. Any ordered
	// integer type (and string) is accepted; floating-point types are
	// rejected because NaN breaks the total order the kernels were
	// verified against.
	Elem string
}

// elemTypes are the element types the emitter accepts.
var elemTypes = map[string]bool{
	"int": true, "int8": true, "int16": true, "int32": true, "int64": true,
	"uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true,
	"uintptr": true, "string": true,
}

// ValidElem reports whether elem is an element type the emitter accepts
// (exact Go type-name spelling, case-sensitive: "int", not "Int").
// Callers that pay for composition before emitting — the sortgen
// service endpoint — use it to reject bad types up front.
func ValidElem(elem string) bool { return elemTypes[elem] }

func (o *EmitOptions) normalize(n int) error {
	if o.Package == "" {
		o.Package = "sorter"
	}
	if o.FuncName == "" {
		o.FuncName = fmt.Sprintf("Sort%d", n)
	}
	if o.Elem == "" {
		o.Elem = "int"
	}
	// GoFile does not parse what it writes, so a bad name would reach the
	// caller's compiler instead of failing here.
	if !token.IsIdentifier(o.Package) {
		return fmt.Errorf("sortgen: package name %q is not a Go identifier", o.Package)
	}
	if !token.IsIdentifier(o.FuncName) {
		return fmt.Errorf("sortgen: function name %q is not a Go identifier", o.FuncName)
	}
	if !elemTypes[o.Elem] {
		return fmt.Errorf("sortgen: unsupported element type %q (ordered integer types and string only; floats are excluded because NaN breaks the verified total order)", o.Elem)
	}
	return nil
}

// BlocksDesc renders the block cover, e.g. "5+5+3" for n=13.
func (p *Plan) BlocksDesc() string {
	if len(p.Blocks) == 0 {
		return "0"
	}
	parts := make([]string, len(p.Blocks))
	for i, b := range p.Blocks {
		parts[i] = fmt.Sprint(b.N)
	}
	return strings.Join(parts, "+")
}

// GoFile renders the plan as a complete Go source file: a
// generated-code header, the package clause, and the sorter function.
// The output is gofmt-clean by construction — every line is written in
// its formatted shape, and no composite literal or comment block needs
// alignment — so it is not run through go/format, which would cost more
// than ten times the rendering. TestEmitGofmtClean guards the claim for
// n up to 256 under both objectives and for every element type.
func (p *Plan) GoFile(opts EmitOptions) (string, error) {
	if err := opts.normalize(p.N); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by sortsynth sortgen (n=%d, elem=%s); DO NOT EDIT.\n", p.N, opts.Elem)
	b.WriteString("//\n")
	fmt.Fprintf(&b, "// Branchless sorter composed from synthesized sorting kernels\n")
	fmt.Fprintf(&b, "// (blocks %s, %d kernel instructions) and Batcher odd-even merge\n", p.BlocksDesc(), p.KernelInstructions())
	fmt.Fprintf(&b, "// layers (%d comparators).\n", p.Comparators())
	fmt.Fprintf(&b, "package %s\n\n", opts.Package)
	fn, err := p.goFunc(opts)
	if err != nil {
		return "", err
	}
	b.WriteString(fn)
	return b.String(), nil
}

// LeavesSource renders zleaves.go, the compiled leaves of HybridSort:
// for each n in MaxKernelN+1..maxLeafN, the sorter Compose(n) emits
// (the same body /v1/sortgen serves for n, named sort<n>), and the
// composedLeaves table that maps n to it. `genkernels -leaves` writes
// the result; a test requires the committed file to match it.
func LeavesSource() ([]byte, error) {
	var b strings.Builder
	b.WriteString(`// Code generated by cmd/genkernels -leaves; DO NOT EDIT.

// This file compiles the composed sorters for n = 6..maxLeafN into
// HybridSort's leaves: each function is the sorter Compose(n) emits,
// synthesized-kernel blocks followed by 0-1-certified Batcher merges.

package sortgen

`)
	fmt.Fprintf(&b, "// composedLeaves[n] is the composed sorter for n = %d..maxLeafN.\n", MaxKernelN+1)
	b.WriteString("var composedLeaves = [maxLeafN + 1]func([]int){\n")
	for n := MaxKernelN + 1; n <= maxLeafN; n++ {
		fmt.Fprintf(&b, "%d: sort%d,\n", n, n)
	}
	b.WriteString("}\n")
	for n := MaxKernelN + 1; n <= maxLeafN; n++ {
		p, err := Compose(n)
		if err != nil {
			return nil, err
		}
		fn, err := p.goFunc(EmitOptions{FuncName: fmt.Sprintf("sort%d", n), Elem: "int"})
		if err != nil {
			return nil, err
		}
		b.WriteString("\n" + fn)
	}
	src, err := format.Source([]byte(b.String()))
	if err != nil {
		return nil, fmt.Errorf("sortgen: leaf source does not parse: %w", err)
	}
	return src, nil
}

// goFunc renders only the sorter function, gofmt-clean on its own
// (LeavesSource runs its file through go/format for the table it puts
// in front).
func (p *Plan) goFunc(opts EmitOptions) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s sorts a[:%d] in place.\n", opts.FuncName, p.N)
	fmt.Fprintf(&b, "func %s(a []%s) {\n", opts.FuncName, opts.Elem)
	if p.N > 1 {
		fmt.Fprintf(&b, "\ta = a[:%d]\n", p.N)
	} else {
		b.WriteString("\t_ = a\n")
	}
	for _, blk := range p.Blocks {
		switch {
		case blk.N < 2:
		case blk.N == 2:
			fmt.Fprintf(&b, "\t// a[%d:%d]: compare-and-swap\n", blk.Lo, blk.Lo+2)
			emitCAS(&b, "\t", blk.Lo, blk.Lo+1)
		default:
			k := *p.kernel(blk.N)
			fmt.Fprintf(&b, "\t// a[%d:%d]: synthesized %d-instruction sort%d kernel\n",
				blk.Lo, blk.Lo+blk.N, len(k.prog), blk.N)
			emitKernel(&b, k.set, k.prog, blk.Lo, opts.Elem)
		}
	}
	for _, m := range p.Merges {
		fmt.Fprintf(&b, "\t// merge sorted runs a[%d:%d] and a[%d:%d] (%d comparators)\n",
			m.Lo, m.Lo+m.M, m.Lo+m.M, m.Lo+m.M+m.K, len(m.Ops))
		for _, c := range m.Ops {
			emitCAS(&b, "\t", c.I, c.J)
		}
	}
	b.WriteString("}\n")
	return b.String(), nil
}

// emitCAS writes one branchless compare-and-swap through the min/max
// builtins (lowered to CMOVcc/pmin-pmax-style code on amd64).
func emitCAS(b *strings.Builder, indent string, i, j int) {
	fmt.Fprintf(b, "%sa[%d], a[%d] = min(a[%d], a[%d]), max(a[%d], a[%d])\n",
		indent, i, j, i, j, i, j)
}

// emitKernel inlines a synthesized kernel on the elements
// [lo, lo+set.N) as a scoped block in the conditional-assignment style
// the Go compiler lowers to CMOVcc (the same shape as the frozen
// kernels in internal/kernels/zsynth.go, generalized to an offset and
// an element type).
func emitKernel(b *strings.Builder, set *isa.Set, p isa.Program, lo int, elem string) {
	n, m := set.N, set.M
	reg := func(r uint8) string {
		if int(r) < n {
			return fmt.Sprintf("r%d", r+1)
		}
		return fmt.Sprintf("s%d", int(r)-n+1)
	}
	b.WriteString("\t{\n")
	var decl, vals, outs []string
	for i := 0; i < n; i++ {
		decl = append(decl, fmt.Sprintf("r%d", i+1))
		vals = append(vals, fmt.Sprintf("a[%d]", lo+i))
		outs = append(outs, fmt.Sprintf("r%d", i+1))
	}
	fmt.Fprintf(b, "\t\t%s := %s\n", strings.Join(decl, ", "), strings.Join(vals, ", "))
	for i := 0; i < m; i++ {
		fmt.Fprintf(b, "\t\tvar s%d %s\n\t\t_ = s%d\n", i+1, elem, i+1)
	}
	if usesFlags(p) {
		b.WriteString("\t\tlt, gt := false, false\n\t\t_, _ = lt, gt\n")
	}
	for _, in := range p {
		d, s := reg(in.Dst), reg(in.Src)
		switch in.Op {
		case isa.Mov:
			fmt.Fprintf(b, "\t\t%s = %s\n", d, s)
		case isa.Cmp:
			fmt.Fprintf(b, "\t\tlt, gt = %s < %s, %s > %s\n", d, s, d, s)
		case isa.Cmovl:
			fmt.Fprintf(b, "\t\tif lt {\n\t\t\t%s = %s\n\t\t}\n", d, s)
		case isa.Cmovg:
			fmt.Fprintf(b, "\t\tif gt {\n\t\t\t%s = %s\n\t\t}\n", d, s)
		case isa.Min:
			fmt.Fprintf(b, "\t\t%s = min(%s, %s)\n", d, d, s)
		case isa.Max:
			fmt.Fprintf(b, "\t\t%s = max(%s, %s)\n", d, d, s)
		}
	}
	fmt.Fprintf(b, "\t\t%s = %s\n", strings.Join(vals, ", "), strings.Join(outs, ", "))
	b.WriteString("\t}\n")
}

func usesFlags(p isa.Program) bool {
	for _, in := range p {
		if in.Op.WritesFlags() || in.Op.ReadsFlags() {
			return true
		}
	}
	return false
}
