package lockcheck_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"hybriddtm/internal/analysis"
	"hybriddtm/internal/analysis/analysistest"
	"hybriddtm/internal/analysis/lockcheck"
)

func TestLockcheck(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lockcheck.Analyzer, "guarded")
}

// checkSrc type-checks one self-contained source string; sync is
// resolved through a stand-in importer.
func checkSrc(t *testing.T, src string) *analysis.CheckedPackage {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := analysis.NewInfo()
	pkg, err := (&types.Config{Importer: syncImporter{}}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &analysis.CheckedPackage{Path: "p", Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}
}

// syncImporter type-checks a minimal stand-in sync package on demand,
// keeping these unit tests free of export-data loading.
type syncImporter struct{}

func (syncImporter) Import(path string) (*types.Package, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sync.go", `package sync

type Mutex struct{ state int32 }

func (m *Mutex) Lock()   {}
func (m *Mutex) Unlock() {}
`, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return (&types.Config{}).Check("sync", fset, []*ast.File{f}, nil)
}

func findings(t *testing.T, src string) []analysis.Finding {
	t.Helper()
	out, err := analysis.Run(checkSrc(t, src), []*analysis.Analyzer{lockcheck.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDeferInLoopWindow: a lock acquired in one loop iteration does not
// leak into the next iteration's held set.
func TestLockDoesNotLeakAcrossIterations(t *testing.T) {
	fs := findings(t, `package p

import "sync"

type S struct {
	mu sync.Mutex
	n  int // guarded-by: mu
}

func (s *S) Run(lock bool) {
	for i := 0; i < 2; i++ {
		if lock {
			s.mu.Lock()
		}
		s.n++
		if lock {
			s.mu.Unlock()
		}
	}
}
`)
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "n without holding mu") {
		t.Fatalf("conditional lock should not dominate the access; findings: %v", fs)
	}
}

// TestTestFilesSkipped: _test.go sources are exempt — tests may poke
// guarded state single-threaded.
func TestTestFilesSkipped(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	for name, text := range map[string]string{
		"p.go": `package p

import "sync"

type S struct {
	mu sync.Mutex
	n  int // guarded-by: mu
}
`,
		"p_test.go": `package p

func poke(s *S) { s.n = 1 }
`,
	} {
		f, err := parser.ParseFile(fset, name, text, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := analysis.NewInfo()
	pkg, err := (&types.Config{Importer: syncImporter{}}).Check("p", fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	cp := &analysis.CheckedPackage{Path: "p", Fset: fset, Files: files, Pkg: pkg, Info: info}
	out, err := analysis.Run(cp, []*analysis.Analyzer{lockcheck.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("test-file access was flagged: %v", out)
	}
}

// TestSwitchClausesIsolated: a lock taken in one case clause does not
// cover a sibling clause.
func TestSwitchClausesIsolated(t *testing.T) {
	fs := findings(t, `package p

import "sync"

type S struct {
	mu sync.Mutex
	n  int // guarded-by: mu
}

func (s *S) Pick(k int) {
	switch k {
	case 0:
		s.mu.Lock()
		s.n = 1
		s.mu.Unlock()
	case 1:
		s.n = 2
	}
}
`)
	if len(fs) != 1 {
		t.Fatalf("want exactly the case-1 access flagged, got %v", fs)
	}
	if got := fs[0].Posn.Line; got != 17 {
		t.Errorf("finding at line %d, want 17 (the unlocked clause)", got)
	}
}
