// Process-level contract test for cmd/dtmlint: the repo must lint clean,
// and a planted violation must fail the build with a finding on the right
// line. This is the executable form of the CI lint gate.
package hybriddtm

import (
	"fmt"
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

// TestDtmlintAllocguardPlant copies the working tree, plants a
// fmt.Sprintf inside power.Compute — a //dtmlint:allocfree root backed
// by TestComputeAllocationFree — and demands dtmlint report it at the
// planted file:line. This proves the real annotation is present and
// load-bearing, not just that the analyzer works on fixtures.
func TestDtmlintAllocguardPlant(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dtmlint and type-checks a copied tree")
	}
	bin := buildDtmlint(t)
	dir := copyTree(t)

	const marker = "dst = dst[:n]"
	path := filepath.Join(dir, "internal", "power", "power.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(src), "\n")
	planted := -1
	for i, l := range lines {
		if strings.Contains(l, marker) {
			planted = i + 2 // 1-based line of the inserted statement
			lines = append(lines[:i+1], append([]string{`	_ = fmt.Sprintf("planted %d", n)`}, lines[i+1:]...)...)
			break
		}
	}
	if planted < 0 {
		t.Fatalf("marker %q not found in power.Compute", marker)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	wantLoc := fmt.Sprintf("power.go:%d", planted)

	t.Run("standalone", func(t *testing.T) {
		cmd := exec.Command(bin, "./internal/power")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 1 {
			t.Fatalf("dtmlint on planted allocation: err=%v (want exit 1)\n%s", err, out)
		}
		if !strings.Contains(string(out), "allocguard") || !strings.Contains(string(out), wantLoc) {
			t.Errorf("allocguard finding not located at %s:\n%s", wantLoc, out)
		}
	})
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

// TestDtmlintReportArtifact runs the standalone driver twice with
// -allocguard.report and requires byte-identical artifacts naming the
// power root — the property CI relies on when it uploads the file.
func TestDtmlintReportArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dtmlint and type-checks the module")
	}
	bin := buildDtmlint(t)
	read := func(name string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		cmd := exec.Command(bin, "-allocguard.report="+path, "./internal/power", "./internal/rc")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("dtmlint -allocguard.report: %v\n%s", err, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	first, second := read("a.txt"), read("b.txt")
	if first != second {
		t.Errorf("report artifact not deterministic:\n--- first\n%s\n--- second\n%s", first, second)
	}
	for _, want := range []string{"root (*Model).Compute", "root (*Network).SteadyStateInto"} {
		if !strings.Contains(first, want) {
			t.Errorf("report artifact missing %q:\n%s", want, first)
		}
	}
}

// copyTree clones the checked-in working tree (tracked files only) into
// a temp dir so tests can mutate sources freely.
func copyTree(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("git", "ls-files").Output()
	if err != nil {
		t.Fatalf("git ls-files: %v", err)
	}
	dir := t.TempDir()
	for _, name := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		data, err := os.ReadFile(name)
		if err != nil {
			// Tracked but deleted in the working tree: skip.
			continue
		}
		dst := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
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
