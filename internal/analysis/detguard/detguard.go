// Package detguard defines the dtmlint analyzer that machine-checks the
// simulator's bit-for-bit determinism contract. The repo's headline
// results (duty-3/duty-20 crossovers, hybrids beating DVS) are pinned by
// byte-exact golden tests, which only hold if the simulation core never
// consults a source of nondeterminism. Inside the deterministic packages
// (core, dtm, hotspot, rc, dvfs, experiments) it flags:
//
//   - time.Now — wall-clock reads; simulated time comes from the thermal
//     step accounting, and host time must never reach a Result. The
//     legitimate uses (progress ETA, latency metrics, provenance
//     manifests) carry //dtmlint:allow detguard annotations.
//   - the global math/rand source — unseeded and, since Go 1.20,
//     randomly seeded per process. Deterministic code uses the trace
//     generator's own xorshift64* or an explicitly seeded rand.New.
//   - range over a map — iteration order is randomized per run; any map
//     walk that feeds results or output must be sorted or annotated as
//     an order-independent reduction.
//   - go statements with no context plumbing — a goroutine the driver
//     cannot cancel can outlive the run and interleave with the next
//     one; every goroutine in the deterministic packages must receive a
//     context.Context (the worker pool's forEach is the pattern).
package detguard

import (
	"go/ast"
	"go/types"

	"hybriddtm/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "detguard",
	Doc: "flag nondeterminism (time.Now, global math/rand, map range, unplumbed goroutines) " +
		"in the deterministic simulation packages",
	Run: run,
}

// scoped is the set of deterministic packages, matched by base name so
// analysistest fixtures (package path "core") are in scope like the real
// hybriddtm/internal/core.
var scoped = map[string]bool{
	"core": true, "dtm": true, "hotspot": true,
	"rc": true, "dvfs": true, "experiments": true,
}

// Constructors of math/rand and math/rand/v2 that take an explicit seed
// or source and are therefore deterministic to call.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !scoped[analysis.PkgBase(pass.Pkg.Path())] {
		return nil, nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n)
			case *ast.GoStmt:
				checkGo(pass, n)
			}
			return true
		})
	}
	return nil, nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	switch pkg {
	case "time":
		if name == "Now" || name == "Since" || name == "Until" {
			pass.Reportf(call.Pos(),
				"time.%s in deterministic package: simulated time comes from thermal-step accounting, not the wall clock", name)
		}
	case "math/rand", "math/rand/v2":
		// Package-level functions draw from the process-global, randomly
		// seeded source; methods on an explicitly constructed *Rand are fine.
		// (fn.Type() assertion rather than fn.Signature(), which is go1.23+;
		// the module pins go 1.22.)
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() == nil && !seededConstructors[name] {
			pass.Reportf(call.Pos(),
				"global math/rand source (%s.%s) in deterministic package: construct a seeded rand.New(rand.NewSource(seed)) or use the trace generator's xorshift64*", pkg, name)
		}
	}
}

func checkRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); ok {
		pass.Reportf(rng.Pos(),
			"map iteration order is randomized per run: sort the keys, or annotate an order-independent reduction with //dtmlint:allow")
	}
}

// checkGo requires the spawned call (including a func-literal body) to
// mention at least one context.Context-typed value.
func checkGo(pass *analysis.Pass, g *ast.GoStmt) {
	found := false
	ast.Inspect(g.Call, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if isContext(pass.TypesInfo.TypeOf(id)) {
			found = true
			return false
		}
		return true
	})
	if !found {
		pass.Reportf(g.Pos(),
			"goroutine without context plumbing: pass a context.Context so the driver can cancel it before the next deterministic run")
	}
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
