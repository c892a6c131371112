package sortgen

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sortsynth/internal/enum"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestGoldenSort6(t *testing.T) {
	p, err := Compose(6)
	if err != nil {
		t.Fatal(err)
	}
	src, err := p.GoFile(EmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sort6_int.go.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if src != string(want) {
		t.Errorf("emitted source for n=6 drifted from %s (run with -update if intentional):\n%s", golden, src)
	}
}

// TestLeavesSourceMatchesZleaves is the regeneration gate for
// HybridSort's compiled leaves: the committed zleaves.go must be
// byte-identical to LeavesSource, so a change to a frozen kernel or to
// the merge construction fails until `go run ./cmd/genkernels -leaves`
// is rerun.
func TestLeavesSourceMatchesZleaves(t *testing.T) {
	src, err := LeavesSource()
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("zleaves.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, committed) {
		t.Fatal("zleaves.go is stale: regenerate it with `go run ./cmd/genkernels -leaves`")
	}
}

// TestEmitGofmtClean is the guard behind GoFile's promise of
// gofmt-clean output (GoFile itself never runs go/format): every n up to
// 64 and every 16th up to 256, the largest n sortsynthd serves by
// default, under both objectives, and every element type at a few n.
// Under -short it stops at n=40.
func TestEmitGofmtClean(t *testing.T) {
	maxN := 256
	if testing.Short() {
		maxN = 40
	}
	var ns []int
	for n := 0; n <= maxN; n++ {
		if n <= 64 || n%16 == 0 {
			ns = append(ns, n)
		}
	}
	check := func(n int, obj enum.Objective, elem string) {
		t.Helper()
		p, err := ComposeObjective(n, obj)
		if err != nil {
			t.Fatal(err)
		}
		src, err := p.GoFile(EmitOptions{Elem: elem})
		if err != nil {
			t.Fatal(err)
		}
		formatted, err := format.Source([]byte(src))
		if err != nil {
			t.Fatalf("n=%d %s %s: emitted source does not parse: %v", n, obj, elem, err)
		}
		if src != string(formatted) {
			t.Errorf("n=%d %s %s: emitted source is not gofmt-clean", n, obj, elem)
		}
	}
	for _, obj := range []enum.Objective{enum.ObjectiveShortest, enum.ObjectiveFastest} {
		for _, n := range ns {
			check(n, obj, "int")
		}
	}
	elems := slices.Sorted(maps.Keys(elemTypes))
	for _, elem := range elems {
		for _, n := range []int{1, 3, 4, 5, 13} {
			check(n, enum.ObjectiveFastest, elem)
		}
	}
}

func TestEmitOptionValidation(t *testing.T) {
	p, err := Compose(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, elem := range []string{"float64", "float32", "bool", "[]int", "int;"} {
		if _, err := p.GoFile(EmitOptions{Elem: elem}); err == nil {
			t.Errorf("GoFile accepted element type %q", elem)
		}
	}
	for _, name := range []string{"Sort 3", "func", "x;y", "3sort", "a.b"} {
		if _, err := p.GoFile(EmitOptions{Package: name}); err == nil {
			t.Errorf("GoFile accepted package name %q", name)
		}
		if _, err := p.GoFile(EmitOptions{FuncName: name}); err == nil {
			t.Errorf("GoFile accepted function name %q", name)
		}
	}
	src, err := p.GoFile(EmitOptions{Package: "kern", FuncName: "Quad", Elem: "uint32"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"package kern", "func Quad(a []uint32)"} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted source missing %q", want)
		}
	}
}

// TestEmittedModule is the generate → vet → build → differential gate
// (`make sortgen-check`): it writes generated sorters for n = 6, 13, 32
// into a throwaway module together with a differential main, then runs
// go vet, go build, and the compiled differential test against
// slices.Sort over all five distributions.
func TestEmittedModule(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool not in PATH: %v", err)
	}
	dir := t.TempDir()
	ns := []int{6, 13, 32}
	for _, n := range ns {
		p, err := Compose(n)
		if err != nil {
			t.Fatal(err)
		}
		src, err := p.GoFile(EmitOptions{Package: "main"})
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.Join(dir, fmt.Sprintf("sort%d.go", n))
		if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"),
		[]byte("module sortgencheck\n\ngo 1.23\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(diffMain), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(args ...string) {
		t.Helper()
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off", "GO111MODULE=on")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go %s failed: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	run("vet", "./...")
	run("build", "-o", filepath.Join(dir, "sortgencheck"), ".")

	cmd := exec.Command(filepath.Join(dir, "sortgencheck"))
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("differential test on emitted sorters failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "OK") {
		t.Fatalf("differential main did not report OK:\n%s", out)
	}
}

// diffMain is the differential harness compiled into the throwaway
// module: byte-equality with slices.Sort over adversarial shapes. It is
// deliberately self-contained (stdlib only) so the temp module needs no
// dependencies.
const diffMain = `package main

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
)

func main() {
	sorters := map[int]func([]int){6: Sort6, 13: Sort13, 32: Sort32}
	rng := rand.New(rand.NewSource(99))
	gens := []func(n int) []int{
		func(n int) []int { // random
			a := make([]int, n)
			for i := range a {
				a[i] = rng.Intn(20001) - 10000
			}
			return a
		},
		func(n int) []int { // sorted
			a := make([]int, n)
			for i := range a {
				a[i] = i
			}
			return a
		},
		func(n int) []int { // reversed
			a := make([]int, n)
			for i := range a {
				a[i] = n - i
			}
			return a
		},
		func(n int) []int { // dup-heavy
			a := make([]int, n)
			for i := range a {
				a[i] = rng.Intn(4)
			}
			return a
		},
		func(n int) []int { // sawtooth
			a := make([]int, n)
			for i := range a {
				a[i] = i % 5
			}
			return a
		},
	}
	for n, sorter := range sorters {
		for gi, gen := range gens {
			for trial := 0; trial < 500; trial++ {
				in := gen(n)
				want := slices.Clone(in)
				slices.Sort(want)
				got := slices.Clone(in)
				sorter(got)
				if !slices.Equal(got, want) {
					fmt.Printf("FAIL n=%d gen=%d: in=%v got=%v want=%v\n", n, gi, in, got, want)
					os.Exit(1)
				}
			}
		}
	}
	fmt.Println("OK")
}
`
