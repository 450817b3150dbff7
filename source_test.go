package hybriddtm

import (
	"io/fs"
	"os/exec"
	"path"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// TestSourcesAreExperimentsDeps holds the embed list to the packages that
// internal/experiments links, so a new simulation package cannot slip
// past the fingerprint and an edit to a package outside the set (cmd/,
// bench/, internal/report) reaches no key, and checks that only .go
// files are embedded.
func TestSourcesAreExperimentsDeps(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-f", "{{if not .Standard}}{{.ImportPath}}{{end}}",
		"hybriddtm/internal/experiments").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	want := strings.Fields(string(out))
	sort.Strings(want)

	dirs := map[string]bool{}
	err = fs.WalkDir(sources, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if !strings.HasSuffix(p, ".go") {
			t.Errorf("embedded %s is not a .go file", p)
		}
		if !strings.HasSuffix(p, "_test.go") {
			dirs[path.Join("hybriddtm", path.Dir(p))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for d := range dirs {
		got = append(got, d)
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("embedded packages\n  %v\nwant the deps of internal/experiments\n  %v", got, want)
	}
}

// TestSourceSumSeesEveryByte edits one byte of each embedded file in
// turn. Each edit to a non-test file must change the sum; an edit to a
// _test.go file, or an added .md file, must not.
func TestSourceSumSeesEveryByte(t *testing.T) {
	files := fstest.MapFS{}
	err := fs.WalkDir(sources, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := fs.ReadFile(sources, p)
		files[p] = &fstest.MapFile{Data: data}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sourceSum(files)
	if err != nil {
		t.Fatal(err)
	}
	edited := 0
	for p, f := range files {
		data := f.Data
		f.Data = append([]byte(nil), data...)
		f.Data[len(f.Data)/2] ^= 1
		sum, err := sourceSum(files)
		f.Data = data
		if err != nil {
			t.Fatal(err)
		}
		test := strings.HasSuffix(p, "_test.go")
		switch {
		case !test && sum == base:
			t.Errorf("editing %s left the sum unchanged", p)
		case test && sum != base:
			t.Errorf("editing the test file %s changed the sum", p)
		}
		if !test {
			edited++
		}
	}
	if edited == 0 {
		t.Fatal("no non-test file embedded")
	}
	files["internal/core/NOTES.md"] = &fstest.MapFile{Data: []byte("notes\n")}
	if sum, err := sourceSum(files); err != nil || sum != base {
		t.Errorf("adding a .md file changed the sum (err %v)", err)
	}
}

func TestSourceFingerprintStable(t *testing.T) {
	a, err := SourceFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := SourceFingerprint()
	if err != nil || a != b || a == "" {
		t.Errorf("fingerprint %q then %q (err %v)", a, b, err)
	}
}
