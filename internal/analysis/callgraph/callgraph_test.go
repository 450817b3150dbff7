// Package callgraph holds the unit tests of the call graph that
// allocguard walks from its //dtmlint:allocfree roots. The walk itself
// lives in allocguard; each test here runs the analyzer over one small
// source in which every function allocates, and reads the graph's
// edges back from which functions are reported.
package callgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"hybriddtm/internal/analysis"
	"hybriddtm/internal/analysis/allocguard"
)

// src roots the walk at (*T).Step. Every function allocates once, so a
// function is reported exactly when the walk reaches it. PRUNE is
// replaced by an allow directive in the pruning test; an allow covers
// its own line and the next, so the line after it holds no static call.
const src = `package p

type T struct {
	cb func()
}

//dtmlint:allocfree
func (t *T) Step() {
	t.prep() PRUNE
	t.cb = viaField
	t.cb()
	helper()
	var s Sampler = t
	s.Sample()
	f := viaValue
	f()
	func() { leafFromLit() }()
}

func (t *T) prep() { _ = make([]int, 1); deeper() }

func deeper() { _ = make([]int, 1) }

func helper() { _ = make([]int, 1) }

func leafFromLit() { _ = make([]int, 1) }

func viaValue() { _ = make([]int, 1) }

func viaField() { _ = make([]int, 1) }

func unreached() { _ = make([]int, 1); helper() }

type Sampler interface{ Sample() }

func (t *T) Sample() { _ = make([]int, 1) }
`

// reported runs allocguard over source and returns, per declared
// function name, the messages of the findings inside its body.
func reported(t *testing.T, source string) map[string][]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", source, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := analysis.NewInfo()
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	cp := &analysis.CheckedPackage{Path: "p", Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
	findings, err := analysis.Run(cp, []*analysis.Analyzer{allocguard.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string)
	for _, fd := range f.Decls {
		fd, ok := fd.(*ast.FuncDecl)
		if !ok {
			continue
		}
		from, to := fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line
		for _, fi := range findings {
			if fi.Posn.Line >= from && fi.Posn.Line <= to {
				out[fd.Name.Name] = append(out[fd.Name.Name], fi.Message)
			}
		}
	}
	return out
}

func unpruned(t *testing.T) map[string][]string {
	t.Helper()
	return reported(t, strings.Replace(src, "PRUNE", "", 1))
}

func names(m map[string][]string) []string {
	var out []string
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestStaticEdges: calls that resolve to a function declared in the
// package are followed, whether a method, a plain function, or a call
// inside an immediately invoked function literal.
func TestStaticEdges(t *testing.T) {
	got := unpruned(t)
	for _, name := range []string{"prep", "helper", "leafFromLit"} {
		if len(got[name]) == 0 {
			t.Errorf("%s not reached from Step; reported: %v", name, names(got))
		}
	}
}

// TestDynamicSinks: interface-method, function-value and
// function-valued field calls are not followed, so the allocating
// targets behind them are not reported.
func TestDynamicSinks(t *testing.T) {
	got := unpruned(t)
	for _, name := range []string{"Sample", "viaValue", "viaField"} {
		if msgs := got[name]; len(msgs) != 0 {
			t.Errorf("%s is only called dynamically but was reported: %v", name, msgs)
		}
	}
}

// TestReachable: the reached set is the transitive closure of the static
// edges from the root, and every finding names that root.
func TestReachable(t *testing.T) {
	got := unpruned(t)
	want := []string{"Step", "deeper", "helper", "leafFromLit", "prep"}
	if have := names(got); strings.Join(have, ",") != strings.Join(want, ",") {
		t.Fatalf("reported in %v, want %v", have, want)
	}
	for name, msgs := range got {
		for _, m := range msgs {
			if !strings.Contains(m, "(root (*T).Step)") {
				t.Errorf("finding in %s not attributed to (*T).Step: %q", name, m)
			}
		}
	}
}

// TestReachablePrune: an allow directive on a call site prunes that edge
// and the subtree only it reaches; other edges still reach their
// targets.
func TestReachablePrune(t *testing.T) {
	got := reported(t, strings.Replace(src, "PRUNE", "//dtmlint:allow allocguard init phase", 1))
	for _, name := range []string{"prep", "deeper"} {
		if msgs := got[name]; len(msgs) != 0 {
			t.Errorf("%s is behind a pruned edge but was reported: %v", name, msgs)
		}
	}
	if len(got["helper"]) == 0 {
		t.Errorf("helper not reached despite its direct edge from Step; reported: %v", names(got))
	}
}

// TestUnreachedStaysOut: a function no root reaches is not scanned, even
// when it calls a reached one.
func TestUnreachedStaysOut(t *testing.T) {
	if msgs := unpruned(t)["unreached"]; len(msgs) != 0 {
		t.Errorf("unreached function was scanned: %v", msgs)
	}
}
