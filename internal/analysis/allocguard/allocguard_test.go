package allocguard_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"hybriddtm/internal/analysis"
	"hybriddtm/internal/analysis/allocguard"
	"hybriddtm/internal/analysis/analysistest"
)

func TestAllocguard(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), allocguard.Analyzer, "allocfree")
}

// checkSrc type-checks one self-contained source string.
func checkSrc(t *testing.T, src string) *analysis.CheckedPackage {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := analysis.NewInfo()
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &analysis.CheckedPackage{Path: "p", Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
}

// TestMalformedDirective: a fused directive suffix is reported rather
// than silently ignored (mirroring the //dtmlint:allow word-boundary
// rule).
func TestMalformedDirective(t *testing.T) {
	cp := checkSrc(t, `package p

//dtmlint:allocfreeze
func Hot() { _ = make([]int, 4) }
`)
	findings, err := analysis.Run(cp, []*analysis.Analyzer{allocguard.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1 (the malformed directive): %v", len(findings), findings)
	}
	if !strings.Contains(findings[0].Message, "malformed dtmlint:allocfree") {
		t.Errorf("finding %q does not name the malformed directive", findings[0].Message)
	}
}
