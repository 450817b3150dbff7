// Process-level contract test for cmd/dtmlint: the repo must lint clean,
// and a planted violation must fail the build with a finding on the right
// line. This is the executable form of the CI lint gate.
package hybriddtm

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildDtmlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), exeName("dtmlint"))
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/dtmlint").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestDtmlintCLI checks the standalone driver: exit 0 with no output on
// the real tree, exit 1 with a located finding on a module that plants a
// detguard violation, and exit 0 again once the violation carries a
// //dtmlint:allow annotation.
func TestDtmlintCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dtmlint and type-checks the module")
	}
	bin := buildDtmlint(t)

	t.Run("repo-clean", func(t *testing.T) {
		cmd := exec.Command(bin, "./...")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("dtmlint ./... failed: %v\n%s", err, out)
		}
		if len(out) != 0 {
			t.Errorf("clean run produced output:\n%s", out)
		}
	})

	t.Run("planted-violation", func(t *testing.T) {
		dir := plantModule(t, `package core

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`)
		cmd := exec.Command(bin, "./...")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 1 {
			t.Fatalf("dtmlint on planted violation: err=%v (want exit 1)\n%s", err, out)
		}
		if !strings.Contains(string(out), "detguard") || !strings.Contains(string(out), "clock.go:5") {
			t.Errorf("finding not located at clock.go:5:\n%s", out)
		}
	})

	t.Run("allow-suppresses", func(t *testing.T) {
		dir := plantModule(t, `package core

import "time"

func Stamp() int64 {
	return time.Now().UnixNano() //dtmlint:allow detguard provenance stamp, not simulation state
}
`)
		cmd := exec.Command(bin, "./...")
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("annotated violation still fails: %v\n%s", err, out)
		}
	})
}

// TestDtmlintAllocguardPlant copies the working tree, plants
// fmt.Sprintf calls on and off the allocation-free paths, and checks
// what dtmlint reports. A plant inside power.Compute — a
// //dtmlint:allocfree root backed by TestComputeAllocationFree — must be
// reported at its file:line, which proves the real annotation is present
// and load-bearing, not just that the analyzer works on fixtures. A
// plant in core's finish, which carries no annotation but is called
// from the step root, must be reported with that root named. A plant
// in core's start, reached only through RunContext's allow-annotated
// call, must not be reported.
func TestDtmlintAllocguardPlant(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dtmlint and type-checks a copied tree")
	}
	bin := buildDtmlint(t)
	dir := copyTree(t)

	powerLoc := plantAfter(t, filepath.Join(dir, "internal", "power", "power.go"), "dst = dst[:n]")
	corePath := filepath.Join(dir, "internal", "core", "core.go")
	finishLoc := plantAfter(t, corePath, "func (s *Simulator) finish() {")
	startLoc := plantAfter(t, corePath, "func (s *Simulator) start(ctx context.Context) error {")
	if startLoc < finishLoc {
		finishLoc++ // the start plant sits above finish's and shifts it down
	}

	lint := func(t *testing.T, pkg string) string {
		t.Helper()
		cmd := exec.Command(bin, pkg)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 1 {
			t.Fatalf("dtmlint %s on planted allocations: err=%v (want exit 1)\n%s", pkg, err, out)
		}
		return string(out)
	}

	t.Run("standalone", func(t *testing.T) {
		out := lint(t, "./internal/power")
		want := fmt.Sprintf("power.go:%d", powerLoc)
		if !strings.Contains(out, "allocguard") || !strings.Contains(out, want) {
			t.Errorf("allocguard finding not located at %s:\n%s", want, out)
		}
	})

	t.Run("transitive", func(t *testing.T) {
		out := lint(t, "./internal/core")
		var finish, start []string
		for _, l := range strings.Split(out, "\n") {
			if strings.Contains(l, fmt.Sprintf("core.go:%d:", finishLoc)) {
				finish = append(finish, l)
			}
			if strings.Contains(l, fmt.Sprintf("core.go:%d:", startLoc)) {
				start = append(start, l)
			}
		}
		if len(finish) != 1 || !strings.Contains(finish[0], "(root (*Simulator).step)") {
			t.Errorf("want one finding at core.go:%d naming root (*Simulator).step:\n%s", finishLoc, out)
		}
		if len(start) != 0 {
			t.Errorf("plant behind the allow-annotated call edge was reported:\n%s", strings.Join(start, "\n"))
		}
	})
}

// plantAfter inserts a fmt.Sprintf statement on the line after the first
// line of path containing marker and returns the statement's 1-based
// line number.
func plantAfter(t *testing.T, path, marker string) int {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")
	for i, l := range lines {
		if strings.Contains(l, marker) {
			lines = append(lines[:i+1], append([]string{`	_ = fmt.Sprintf("planted %d", 1)`}, lines[i+1:]...)...)
			if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
				t.Fatal(err)
			}
			return i + 2
		}
	}
	t.Fatalf("marker %q not found in %s", marker, path)
	return 0
}

// TestDtmlintLockcheckPlant plants an unguarded access to a guarded-by
// annotated field and checks the standalone driver reports it.
func TestDtmlintLockcheckPlant(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dtmlint and type-checks the module")
	}
	bin := buildDtmlint(t)
	dir := plantModule(t, `package core

import "sync"

type Box struct {
	mu sync.Mutex
	n  int // guarded-by: mu
}

func Peek(b *Box) int { return b.n }
`)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 1 {
		t.Fatalf("dtmlint on planted lockcheck violation: err=%v (want exit 1)\n%s", err, out)
	}
	if !strings.Contains(string(out), "lockcheck") || !strings.Contains(string(out), "clock.go:10") {
		t.Errorf("lockcheck finding not located at clock.go:10:\n%s", out)
	}
}

// copyTree copies the module's sources — go.mod, go.sum and every .go
// file, outside dot-directories such as .git — into a temp dir so tests
// can mutate them freely. It walks the tree rather than asking git, so it
// also works in an exported source tree.
func copyTree(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && name != "go.sum" && !strings.HasSuffix(name, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, path)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// plantModule writes a throwaway single-package module whose package is
// named core — inside detguard's deterministic scope — containing src as
// clock.go.
func plantModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":        "module planted\n\ngo 1.21\n",
		"core/clock.go": src,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}
