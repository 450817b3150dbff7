// Package floatzone defines the dtmlint analyzer that flags `==` and
// `!=` on floating-point operands. Raw float equality is how a
// convergence check silently stops converging: two mathematically equal
// temperatures differ in the last ulp after a reordered reduction, and a
// loop keyed on `==` runs forever or exits early. All comparisons must go
// through the approved epsilon helpers in internal/stats —
// stats.ApproxEqual / stats.ApproxZero for tolerance comparisons, or
// stats.SameFloat where exact IEEE equality is the intended semantics
// (sentinel and change-detection patterns) — so intent is visible at the
// call site. The helpers' own bodies are exempt; everything else needs a
// //dtmlint:allow floatzone annotation.
//
// No runtime test stands in for it. The tree's one tolerance exit is the
// continued fraction behind stats.StudentTCDF; keyed on `del == 1`
// instead, it still stops at its iteration cap and moves t-test values
// only in their last digits, so tier-1 and go test -race pass while
// floatzone reports it (TestDtmlintPlants/floatzone-betacf).
package floatzone

import (
	"go/ast"
	"go/token"
	"go/types"

	"hybriddtm/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "floatzone",
	Doc:  "flag ==/!= on floating-point operands outside the approved stats epsilon helpers",
	Run:  run,
}

// approvedHelpers are the internal/stats functions allowed to compare
// floats directly: they are the vocabulary everything else must use.
var approvedHelpers = map[string]bool{
	"ApproxEqual": true, "ApproxZero": true, "SameFloat": true,
}

func run(pass *analysis.Pass) (any, error) {
	inStats := analysis.PkgBase(pass.Pkg.Path()) == "stats"
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		// Inspect the whole file — package-level var initializers compare
		// floats too — skipping only the approved helpers' own bodies.
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok &&
				inStats && approvedHelpers[fd.Name.Name] && fd.Recv == nil {
				return false
			}
			b, ok := n.(*ast.BinaryExpr)
			if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
				return true
			}
			check(pass, b)
			return true
		})
	}
	return nil, nil
}

func check(pass *analysis.Pass, b *ast.BinaryExpr) {
	if !isFloat(pass.TypesInfo.TypeOf(b.X)) && !isFloat(pass.TypesInfo.TypeOf(b.Y)) {
		return
	}
	// A comparison folded at compile time (both operands constant) cannot
	// drift at run time.
	if pass.TypesInfo.Types[b.X].Value != nil && pass.TypesInfo.Types[b.Y].Value != nil {
		return
	}
	pass.Reportf(b.OpPos,
		"floating-point %s: use stats.ApproxEqual/ApproxZero (tolerance) or stats.SameFloat (intended exact comparison)", b.Op)
}

// isFloat reports whether t's underlying type is a floating-point type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
