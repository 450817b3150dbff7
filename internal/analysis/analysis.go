// Package analysis is a self-contained static-analysis framework for the
// repository's domain linters (cmd/dtmlint). It mirrors the API shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic — so the
// dtmlint analyzers could be ported to the upstream framework
// verbatim, but it is built purely on the standard library (go/ast,
// go/types, go/importer plus `go list -export` for dependency export
// data), because this repository deliberately carries no third-party
// dependencies.
//
// One driver runs the analyzers over the module: the multichecker
// cmd/dtmlint, which loads packages itself via Load. The analyzers' own
// tests run them over fixtures through the analysistest runner
// (internal/analysis/analysistest), which type-checks each fixture with
// Check.
//
// Suppressions: a finding is silenced by a comment
//
//	//dtmlint:allow <analyzer> <reason>
//
// placed on the flagged line or on a line of its own immediately above
// it. The reason is mandatory — a bare allow is itself a finding — so
// every suppression in the tree documents why the invariant does not
// apply (see Suppress in suppress.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check. The fields mirror
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //dtmlint:allow suppressions. It must be a valid identifier.
	Name string

	// Doc is the one-paragraph help text: first line is the summary.
	Doc string

	// Run applies the analyzer to one package. Diagnostics are delivered
	// through pass.Report; the returned value is unused by the dtmlint
	// drivers but kept for upstream API compatibility.
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Drivers install it; analyzers
	// usually go through Reportf.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned by token.Pos within the pass's
// FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// NewInfo returns a types.Info with every map the analyzers need.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// PkgBase returns the last path element of a package path, with any
// " [test variant]" suffix stripped: "hybriddtm/internal/core
// [hybriddtm/internal/core.test]" → "core". Analyzers scope themselves by
// base name so analysistest fixture packages (bare single-element paths
// like "core") land in scope too.
func PkgBase(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	if i := strings.LastIndex(path, "/"); i >= 0 {
		path = path[i+1:]
	}
	return path
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// The dtmlint analyzers check production invariants only: tests seed
// their own PRNGs, compare exact floats on purpose, and drop errors from
// writers they themselves constructed.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}
