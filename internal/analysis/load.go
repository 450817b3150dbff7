package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	DepOnly    bool
	ImportMap  map[string]string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load resolves the package patterns in dir and returns the type-checked
// module packages (dependencies are consumed as compiled export data, not
// re-analyzed). One `go list -deps -export -json` invocation supplies
// the file lists and the export-data files of every dependency, and each
// target package is then parsed and type-checked against those.
func Load(dir string, patterns ...string) ([]*CheckedPackage, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}

	exports := make(map[string]string)
	var targets []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			pp := p
			targets = append(targets, &pp)
		}
	}

	var pkgs []*CheckedPackage
	for _, p := range targets {
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", p.ImportPath)
		}
		cp, err := Check(p.ImportPath, p.Dir, p.GoFiles, func(path string) (io.ReadCloser, error) {
			if mapped, ok := p.ImportMap[path]; ok {
				path = mapped
			}
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		})
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, cp)
	}
	return pkgs, nil
}

// Check parses and type-checks one package from its file list. Imports
// are resolved through lookup, which must return gc export data for the
// given import path (as produced by `go list -export`).
func Check(path, dir string, goFiles []string, lookup func(string) (io.ReadCloser, error)) (*CheckedPackage, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range goFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
	}
	info := NewInfo()
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return &CheckedPackage{Path: path, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}
