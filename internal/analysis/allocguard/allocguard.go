// Package allocguard defines the dtmlint analyzer that statically
// enforces the repository's allocation-free hot-path contracts. The
// dynamic side of the contract is the set of AllocsPerRun==0 tests
// (internal/core/alloc_test.go, internal/rc, internal/power): they prove
// the warm steady-state step touches no heap, but they run late and
// point at a whole pipeline, not a call site. allocguard moves the
// contract to lint time with a file:line.
//
// A function becomes a contract root by carrying the directive in its
// doc comment:
//
//	//dtmlint:allocfree
//	func (m *Model) Compute(...) ...
//
// Every function reachable from a root is scanned for
// allocation-causing constructs: make/new, append, composite literals
// that escape (&T{…}, slice and map literals), closure creation, map
// writes, interface boxing of non-pointer values, string<->[]byte
// conversions, go statements, and calls into known allocators (fmt.*,
// strings.Builder, errors.New).
//
// The analyzer mirrors what AllocsPerRun measures — the warm success
// path — through two structural exemptions:
//
//   - cold error exits: an allocation inside the error result of a
//     `return` (e.g. `return nil, fmt.Errorf(...)`) or inside panic(...)
//     is the failure path, which the dynamic contract never executes;
//   - guarded branches: an allocation inside an if whose condition
//     tests nil-ness (`tr != nil`, lazy `if f == nil { f = … }`) or
//     capacity (`cap(dst) < n`, `len(buf) < n`) sits behind a feature
//     gate, lazy initialization, or grow-once resize — branches the
//     warm loop does not take. (The tracegate analyzer independently
//     enforces that observability emissions are nil-guarded.)
//
// Reachability is a breadth-first walk from the roots over the
// package's declared functions. A call is followed when it resolves
// statically (analysis.Callee) to a function declared with a body in
// the package; interface-method and function-value calls are never
// followed, since their targets are unknowable without whole-program
// analysis. Function literals are part of the function that contains
// them, which over-approximates in the direction a contract wants.
//
// Everything else needs either restructuring or an explicit
// //dtmlint:allow allocguard <reason>. An allow on a *call site* prunes
// the whole call edge from the reachable set, so one annotated call
// (e.g. the init-phase call at the top of the coupled loop) exempts its
// entire subtree; an allow on an allocation line suppresses just that
// finding, like every other analyzer.
//
// Cross-package calls cannot be traversed (only export data of
// dependencies is loaded), so each contract package annotates its own
// entry points.
package allocguard

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hybriddtm/internal/analysis"
)

// Directive marks a function declaration as an allocation-free root.
const Directive = "//dtmlint:allocfree"

var Analyzer = &analysis.Analyzer{
	Name: "allocguard",
	Doc:  "flag allocation-causing constructs reachable from //dtmlint:allocfree roots",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	roots := collectRoots(pass)
	if len(roots) == 0 {
		return nil, nil
	}
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	sup := analysis.CollectSuppressions(pass.Fset, pass.Files)

	// Breadth-first from the roots in source order, callees in source
	// order: each reached function is scanned once, attributed to the
	// first root that reaches it.
	type reached struct {
		fd   *ast.FuncDecl
		root *types.Func
	}
	var queue []reached
	seen := make(map[*types.Func]bool)
	for _, r := range roots {
		if fd := decls[r]; fd != nil {
			seen[r] = true
			queue = append(queue, reached{fd, r})
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if !analysis.IsTestFile(pass.Fset, cur.fd.Pos()) {
			scanFunc(pass, cur.fd, cur.root)
		}
		ast.Inspect(cur.fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			fd := decls[fn]
			// An allow on the call site prunes the edge and its subtree.
			if fd == nil || seen[fn] || sup.Allowed(pass.Fset, "allocguard", call.Pos()) {
				return true
			}
			seen[fn] = true
			queue = append(queue, reached{fd, cur.root})
			return true
		})
	}
	return nil, nil
}

// collectRoots returns the declared functions carrying the allocfree
// directive, in source order, and reports malformed directives (fused
// suffixes like //dtmlint:allocfreeze).
func collectRoots(pass *analysis.Pass) []*types.Func {
	var roots []*types.Func
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				rest, ok := strings.CutPrefix(c.Text, Directive)
				if !ok {
					continue
				}
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					pass.Reportf(c.Pos(), "malformed dtmlint:allocfree directive: want \"//dtmlint:allocfree\" on its own comment line")
					continue
				}
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					roots = append(roots, fn)
				}
				break
			}
		}
	}
	return roots
}

// scanFunc reports every allocation-causing construct in fd's body that
// is not structurally exempt. root names the contract entry point for
// attribution.
func scanFunc(pass *analysis.Pass, fd *ast.FuncDecl, root *types.Func) {
	rootLabel := funcLabel(root)
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if msg := allocMessage(pass, n); msg != "" && !exempt(pass, fd, stack) {
			pass.Reportf(n.Pos(), "%s in allocation-free path (root %s)", msg, rootLabel)
		}
		return true
	})
}

// allocMessage classifies one node as an allocation-causing construct,
// returning "" for innocent nodes.
func allocMessage(pass *analysis.Pass, n ast.Node) string {
	switch n := n.(type) {
	case *ast.CallExpr:
		return callMessage(pass, n)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				return "&composite literal escapes to the heap"
			}
		}
	case *ast.CompositeLit:
		switch pass.TypesInfo.TypeOf(n).Underlying().(type) {
		case *types.Slice:
			return "slice literal allocates its backing array"
		case *types.Map:
			return "map literal allocates"
		}
	case *ast.FuncLit:
		return "closure creation allocates"
	case *ast.GoStmt:
		return "go statement allocates a goroutine"
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				if _, isMap := pass.TypesInfo.TypeOf(idx.X).Underlying().(*types.Map); isMap {
					return "map write may allocate (bucket growth)"
				}
			}
		}
	}
	return ""
}

// callMessage classifies call expressions: builtins, conversions, known
// allocators, and interface boxing at the argument boundary.
func callMessage(pass *analysis.Pass, call *ast.CallExpr) string {
	fun := ast.Unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				return "make allocates"
			case "new":
				return "new allocates"
			case "append":
				return "append may grow its backing array"
			}
			return ""
		}
	}

	// Conversions: flag string<->[]byte (always copies).
	if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := pass.TypesInfo.TypeOf(call.Args[0])
		if src != nil && isStringBytesPair(dst, src.Underlying()) {
			return "string/[]byte conversion copies its operand"
		}
		return ""
	}

	// Known allocators.
	if fn := analysis.Callee(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil {
		switch {
		case fn.Pkg().Path() == "fmt":
			return fmt.Sprintf("fmt.%s allocates", fn.Name())
		case fn.Pkg().Path() == "errors" && fn.Name() == "New":
			return "errors.New allocates"
		case isStringsBuilderMethod(fn):
			return fmt.Sprintf("strings.Builder.%s allocates", fn.Name())
		}
	}

	// Interface boxing at the call boundary: a non-pointer concrete value
	// passed where an interface is expected is materialized on the heap.
	if sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature); ok && sig != nil {
		if msg := boxedArg(pass, call, sig); msg != "" {
			return msg
		}
	}
	return ""
}

// boxedArg reports the first argument that boxes into an interface
// parameter.
func boxedArg(pass *analysis.Pass, call *ast.CallExpr, sig *types.Signature) string {
	params := sig.Params()
	if params == nil || call.Ellipsis.IsValid() {
		return "" // f(xs...) passes an existing slice, no per-element boxing
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.IsNil() {
			continue
		}
		if fitsInterfaceWord(at) {
			continue
		}
		return fmt.Sprintf("argument %d boxes a %s into an interface", i+1, at)
	}
	return ""
}

// fitsInterfaceWord reports whether values of t ride in the interface
// data word without a heap copy (pointer-shaped types).
func fitsInterfaceWord(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	}
	return false
}

func isStringBytesPair(a, b types.Type) bool {
	return (isString(a) && isByteSlice(b)) || (isByteSlice(a) && isString(b))
}

func isString(t types.Type) bool {
	basic, ok := t.(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := s.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Byte
}

func isStringsBuilderMethod(fn *types.Func) bool {
	if fn.Pkg().Path() != "strings" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Builder"
}

// exempt reports whether the node at the top of stack sits on a
// structurally cold path: the error result of a return, a panic
// argument, or a branch guarded by a nil-ness or capacity test.
func exempt(pass *analysis.Pass, fd *ast.FuncDecl, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.ReturnStmt:
			if coldErrorReturn(pass, fd, anc, stack[i+1]) {
				return true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(anc.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		case *ast.IfStmt:
			// Only the branches are cold, not the condition itself.
			if (stack[i+1] == anc.Body || stack[i+1] == anc.Else) && coldCond(pass, anc.Cond) {
				return true
			}
		}
	}
	return false
}

// coldErrorReturn reports whether child is the error result of ret: the
// enclosing function's last result is error and child is the last (or
// only, for `return err`-style single results) returned expression.
func coldErrorReturn(pass *analysis.Pass, fd *ast.FuncDecl, ret *ast.ReturnStmt, child ast.Node) bool {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	if res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
		return false
	}
	if len(ret.Results) == 0 {
		return false
	}
	return child == ast.Node(ret.Results[len(ret.Results)-1])
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// coldCond reports whether an if condition marks its branches as off the
// warm path: some conjunct/disjunct compares against nil (feature gates,
// lazy initialization) or compares cap()/len() (grow-once resizing).
func coldCond(pass *analysis.Pass, cond ast.Expr) bool {
	cond = ast.Unparen(cond)
	b, ok := cond.(*ast.BinaryExpr)
	if !ok {
		if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
			return coldCond(pass, u.X)
		}
		return false
	}
	switch b.Op {
	case token.LAND, token.LOR:
		return coldCond(pass, b.X) || coldCond(pass, b.Y)
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return analysis.IsNil(pass.TypesInfo, b.X) || analysis.IsNil(pass.TypesInfo, b.Y) ||
			isCapLenCall(pass, b.X) || isCapLenCall(pass, b.Y)
	}
	return false
}

func isCapLenCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || (id.Name != "cap" && id.Name != "len") {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

// funcLabel names a root in findings: Name for package functions,
// (Recv).Name or (*Recv).Name for methods.
func funcLabel(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		if named, ok := p.Elem().(*types.Named); ok {
			return fmt.Sprintf("(*%s).%s", named.Obj().Name(), fn.Name())
		}
	}
	if named, ok := t.(*types.Named); ok {
		return fmt.Sprintf("(%s).%s", named.Obj().Name(), fn.Name())
	}
	return fmt.Sprintf("(%s).%s", t, fn.Name())
}
