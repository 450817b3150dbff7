package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parse returns the fileset and suppressions of one source string.
func parseSuppressions(t *testing.T, src string) (*token.FileSet, *Suppressions) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, CollectSuppressions(fset, []*ast.File{f})
}

// posAtLine returns a Pos on the given 1-based line of the single parsed file.
func posAtLine(fset *token.FileSet, line int) token.Pos {
	var pos token.Pos
	fset.Iterate(func(f *token.File) bool {
		pos = f.LineStart(line)
		return false
	})
	return pos
}

func TestSuppressionsAllowed(t *testing.T) {
	fset, sup := parseSuppressions(t, `package p

//dtmlint:allow errsink best-effort cleanup after a failed write
func a() {}

func b() {} //dtmlint:allow all legacy shim
`)
	if len(sup.Malformed) != 0 {
		t.Fatalf("unexpected malformed directives: %v", sup.Malformed)
	}
	// Line 3 holds the directive; it covers lines 3 and 4.
	if !sup.Allowed(fset, "errsink", posAtLine(fset, 4)) {
		t.Error("directive above the line does not suppress")
	}
	if sup.Allowed(fset, "floatzone", posAtLine(fset, 4)) {
		t.Error("directive suppressed a different analyzer")
	}
	if sup.Allowed(fset, "errsink", posAtLine(fset, 5)) {
		t.Error("directive leaked two lines down")
	}
	// "all" suppresses every analyzer on its own line (line 6).
	if !sup.Allowed(fset, "floatzone", posAtLine(fset, 6)) {
		t.Error(`"all" directive does not suppress on its own line`)
	}
}

// TestSuppressionsMalformed pins the failure modes: a missing analyzer or
// reason, and — the sharp edge — a typo fused onto the directive
// (//dtmlint:allowall) must be reported, not parsed as analyzer "all".
func TestSuppressionsMalformed(t *testing.T) {
	for _, tt := range []struct {
		name, comment string
	}{
		{"bare", "//dtmlint:allow"},
		{"no-reason", "//dtmlint:allow floatzone"},
		{"fused-typo", "//dtmlint:allowall legacy shim"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			fset, sup := parseSuppressions(t, "package p\n\n"+tt.comment+"\nfunc a() {}\n")
			if len(sup.Malformed) != 1 {
				t.Fatalf("got %d malformed directives, want 1", len(sup.Malformed))
			}
			if sup.Allowed(fset, "all", posAtLine(fset, 4)) ||
				sup.Allowed(fset, "floatzone", posAtLine(fset, 4)) {
				t.Error("malformed directive still suppresses findings")
			}
		})
	}
}
