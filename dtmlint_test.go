// Process-level contract test for cmd/dtmlint: the repo must lint clean,
// and a planted violation must fail the build with a finding on the right
// line. This is the executable form of the CI lint gate.
package hybriddtm_test

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
// floatzone violation, and exit 0 again once the violation carries a
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
		dir := plantModule(t, boxSrc+"func Same(a, b float64) bool { return a == b }\n")
		cmd := exec.Command(bin, "./...")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 1 {
			t.Fatalf("dtmlint on planted violation: err=%v (want exit 1)\n%s", err, out)
		}
		if !strings.Contains(string(out), "floatzone") || !strings.Contains(string(out), "box.go:3") {
			t.Errorf("finding not located at box.go:3:\n%s", out)
		}
	})

	t.Run("allow-suppresses", func(t *testing.T) {
		dir := plantModule(t, boxSrc+"func Same(a, b float64) bool { return a == b } //dtmlint:allow floatzone exact equality is the point\n")
		cmd := exec.Command(bin, "./...")
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("annotated violation still fails: %v\n%s", err, out)
		}
	})
}

// TestDtmlintPlants plants each analyzer's failure in a copy of the real
// tree and checks that dtmlint reports it at the planted line. Each row
// is its analyzer's named check: tier-1 and go test -race pass with the
// plant in place, so only dtmlint reports it (DESIGN.md "Static
// analysis" lists what each run reported). The line that must be
// reported carries a "// planted" marker.
func TestDtmlintPlants(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dtmlint and type-checks a copied tree")
	}
	bin := buildDtmlint(t)
	dir := copyTree(t)
	for _, tc := range []struct {
		name, analyzer, file, old, new string
	}{
		// The t-distribution's continued fraction stops on exact equality.
		{"floatzone-betacf", "floatzone", "internal/stats/stats.go",
			"\t\tif math.Abs(del-1) < eps {\n",
			"\t\tif del == 1 { // planted\n"},
		// The result cache drops the Close error of a written entry.
		{"errsink-cache", "errsink", "internal/experiments/cache.go",
			"\tif err := tmp.Close(); err != nil {\n\t\tos.Remove(name)\n\t\treturn fmt.Errorf(\"experiments: cache write: %w\", err)\n\t}\n",
			"\ttmp.Close() // planted\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.file)
			line := plant(t, path, tc.old, tc.new)
			cmd := exec.Command(bin, "./"+filepath.Dir(tc.file))
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			exit, ok := err.(*exec.ExitError)
			if !ok || exit.ExitCode() != 1 {
				t.Fatalf("dtmlint on the plant: err=%v (want exit 1)\n%s", err, out)
			}
			want := fmt.Sprintf("%s:%d:", filepath.Base(tc.file), line)
			for _, l := range strings.Split(string(out), "\n") {
				if strings.Contains(l, want) && strings.HasSuffix(l, "("+tc.analyzer+")") {
					return
				}
			}
			t.Errorf("no %s finding at %s:\n%s", tc.analyzer, want, out)
		})
	}
}

// plant replaces the one occurrence of old in path with new, registers
// the original content's restoration, and returns the 1-based line of
// the "// planted" marker.
func plant(t *testing.T, path, old, new string) int {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), old); n != 1 {
		t.Fatalf("plant site found %d times in %s", n, path)
	}
	planted := strings.Replace(string(src), old, new, 1)
	if err := os.WriteFile(path, []byte(planted), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.WriteFile(path, src, 0o644); err != nil {
			t.Error(err)
		}
	})
	before, _, _ := strings.Cut(planted, "// planted")
	return strings.Count(before, "\n") + 1
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

// boxSrc starts the package of the plantModule tests; a planted
// function follows on line 3.
const boxSrc = "package box\n\n"

// plantModule writes a throwaway single-package module containing src as
// box/box.go.
func plantModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":     "module planted\n\ngo 1.21\n",
		"box/box.go": src,
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
