// Package errsink defines the dtmlint analyzer that flags discarded
// errors on sink, artifact, and manifest writes. A simulation that runs
// for hours and then silently fails to persist its trace or manifest is
// the worst failure mode this repo has shipped (the trace-sink exit-code
// bug fixed in PR 3), so any call into internal/obs or internal/report
// whose name says it writes or finalizes an artifact — Write*, Close,
// Flush, Sync — must have its error consumed. Both plain call statements
// and `_ =` discards are flagged; a deliberate discard needs a
// //dtmlint:allow errsink annotation stating why losing the artifact is
// acceptable.
//
// Inside the serve packages the net widens: every Write*/Close/Flush/Sync
// callee with a trailing error result counts, whatever package defines it.
// The server's writes land on HTTP responses and persistent cache files,
// where a swallowed error turns into a silently truncated response or a
// corrupt cache entry; best-effort writes (an error reply already being
// written, a detached streaming flush) carry the annotation instead.
//
// A runtime test sees a dropped error only on a write it makes fail:
// obs.TestJSONLSurfacesWriteError and TestTraceSinkFailureExitsNonzero
// do that for the trace sink. Nothing does it for the rest, so a cache
// write that drops its Close error passes tier-1 and go test -race, and
// only errsink reports it (TestDtmlintPlants/errsink-cache).
package errsink

import (
	"go/ast"
	"go/types"
	"strings"

	"hybriddtm/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "errsink",
	Doc:  "flag unchecked error returns on obs/report sink, artifact, and manifest writes",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscard(pass, call, "return value dropped")
				}
			case *ast.DeferStmt:
				checkDiscard(pass, n.Call, "deferred with error dropped")
			case *ast.GoStmt:
				checkDiscard(pass, n.Call, "goroutine result dropped")
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkDiscard flags a statement-position sink call whose error result
// vanishes.
func checkDiscard(pass *analysis.Pass, call *ast.CallExpr, how string) {
	fn := sinkCallee(pass, call)
	if fn == nil {
		return
	}
	pass.Reportf(call.Pos(),
		"unchecked error from %s.%s (%s): a run that cannot persist its artifact must fail loudly", fn.Pkg().Name(), fn.Name(), how)
}

// checkBlankAssign flags `_ = sink.Close()` style discards where the
// error result lands in the blank identifier.
func checkBlankAssign(pass *analysis.Pass, a *ast.AssignStmt) {
	for i, rhs := range a.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := sinkCallee(pass, call)
		if fn == nil {
			continue
		}
		// Which lhs receives the error? Single-value call: position i.
		// Multi-value call (len(Rhs)==1): the last lhs.
		var errLhs ast.Expr
		if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
			errLhs = a.Lhs[len(a.Lhs)-1]
		} else if i < len(a.Lhs) {
			errLhs = a.Lhs[i]
		}
		if id, ok := errLhs.(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(call.Pos(),
				"error from %s.%s assigned to _: a run that cannot persist its artifact must fail loudly", fn.Pkg().Name(), fn.Name())
		}
	}
}

// neverFails reports whether fn is a method of strings.Builder or
// bytes.Buffer, whose Write* methods keep the io interfaces' error
// result but are documented to always return a nil error.
func neverFails(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// sinkCallee resolves the callee and reports it when it is a
// sink/artifact/manifest write: declared in an obs or report package,
// named Write*/Close/Flush/Sync, returning error as its last result.
func sinkCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	fn := callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	switch analysis.PkgBase(fn.Pkg().Path()) {
	case "obs", "report":
	default:
		// Outside obs/report the name rule applies only within serve,
		// where the targets are HTTP response and cache-file writes.
		if analysis.PkgBase(pass.Pkg.Path()) != "serve" {
			return nil
		}
	}
	name := fn.Name()
	if !strings.HasPrefix(name, "Write") && name != "Close" && name != "Flush" && name != "Sync" {
		return nil
	}
	if neverFails(fn) {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	if !ok || named.Obj().Pkg() != nil || named.Obj().Name() != "error" {
		return nil
	}
	return fn
}

// callee returns the function or method a call names directly, or nil
// for calls through function values, builtins and conversions.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
