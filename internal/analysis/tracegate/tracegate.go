// Package tracegate defines the dtmlint analyzer that preserves the
// observability layer's zero-cost-when-disabled contract in the
// simulation hot path. internal/core hoists the configured Tracer into a
// local (`tr := s.cfg.Tracer`) and guards every emission with one
// `if tr != nil` branch, which is what keeps the nil-tracer overhead at
// ≈0.6% (gated by the BenchmarkCoupledLoop/TracerNil pair). The analyzer
// enforces both halves of that pattern inside internal/core:
//
//   - a Tracer method call whose receiver is not a plain local/parameter
//     identifier (e.g. s.cfg.Tracer.Emit(...)) is flagged: re-reading the
//     field per emission defeats the hoist;
//   - a Tracer method call not enclosed in an `if <recv> != nil` branch
//     on that same identifier (conjuncts allowed: `if on && tr != nil`)
//     is flagged: an unguarded call either panics when tracing is off or
//     forces the caller to pay an interface call per step.
//
// The *obs.StageProfiler threaded through the same loop (and into
// internal/cpu's pipeline stages) carries the identical contract — the
// profiler-off path must stay AllocsPerRun==0 and within ~1% of baseline
// — so the analyzer enforces the same two rules for StageProfiler method
// calls, in both internal/core and internal/cpu.
package tracegate

import (
	"go/ast"
	"go/token"
	"go/types"

	"hybriddtm/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "tracegate",
	Doc:  "require internal/core and internal/cpu Tracer/StageProfiler method calls to be dominated by the hoisted `if x != nil` check",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	switch analysis.PkgBase(pass.Pkg.Path()) {
	case "core", "cpu":
	default:
		return nil, nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		var stack []ast.Node
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if call, ok := n.(*ast.CallExpr); ok {
				checkCall(pass, call, stack)
			}
			return true
		}
		ast.Inspect(f, visit)
	}
	return nil, nil
}

// checkCall flags Tracer and StageProfiler method calls that violate the
// hoisted-guard pattern. stack holds the ancestors of call, call itself
// last.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	recvType := pass.TypesInfo.TypeOf(sel.X)
	var kind string
	switch {
	case isTracer(recvType):
		kind = "Tracer"
	case isProfiler(recvType):
		kind = "StageProfiler"
	default:
		return
	}
	recv, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		pass.Reportf(call.Pos(),
			"%s method call on %s: hoist it into a local (x := ...; if x != nil { ... }) so the disabled path costs one branch", kind, exprString(sel.X))
		return
	}
	obj := pass.TypesInfo.Uses[recv]
	if obj == nil {
		return
	}
	if !guarded(pass, obj, stack) {
		pass.Reportf(call.Pos(),
			"%s method call not dominated by `if %s != nil`: unguarded emission breaks the zero-cost-when-disabled contract", kind, recv.Name)
	}
}

// guarded reports whether some enclosing if statement's condition
// includes the conjunct `obj != nil` and the call sits in its then-branch.
func guarded(pass *analysis.Pass, obj types.Object, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		ifStmt, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		// The call must be inside the body, not the condition or else arm.
		child := stack[i+1]
		if child != ifStmt.Body {
			continue
		}
		if condProvesNonNil(pass, ifStmt.Cond, obj) {
			return true
		}
	}
	return false
}

// condProvesNonNil walks &&-conjuncts looking for `x != nil` where x
// resolves to obj.
func condProvesNonNil(pass *analysis.Pass, cond ast.Expr, obj types.Object) bool {
	cond = ast.Unparen(cond)
	if b, ok := cond.(*ast.BinaryExpr); ok {
		switch b.Op {
		case token.LAND:
			return condProvesNonNil(pass, b.X, obj) || condProvesNonNil(pass, b.Y, obj)
		case token.NEQ:
			return isObjIdent(pass, b.X, obj) && analysis.IsNil(pass.TypesInfo, b.Y) ||
				isObjIdent(pass, b.Y, obj) && analysis.IsNil(pass.TypesInfo, b.X)
		}
	}
	return false
}

func isObjIdent(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == obj
}

// isTracer matches any named interface type called Tracer (obs.Tracer in
// the real tree; fixture-local interfaces in tests).
func isTracer(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if named.Obj().Name() != "Tracer" {
		return false
	}
	_, isIface := named.Underlying().(*types.Interface)
	return isIface
}

// isProfiler matches the named type StageProfiler (obs.StageProfiler in
// the real tree, always held through a pointer; fixture-local structs in
// tests).
func isProfiler(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "StageProfiler"
}

func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "a non-local expression"
}
