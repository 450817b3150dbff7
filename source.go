// Package hybriddtm fingerprints the Go sources of the simulation: this
// package and every package internal/experiments links. The experiment
// runner's result cache puts the fingerprint into every key, so an entry
// that other code wrote is a miss, never served (internal/experiments
// cache.go). The files come from this package's own embed, so the
// fingerprint is of the sources compiled into the binary and there is no
// generated constant to go stale. TestSourcesAreExperimentsDeps holds the
// embed list to `go list -deps hybriddtm/internal/experiments`.
package hybriddtm

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"io/fs"
	"runtime"
	"strings"
	"sync"
)

//go:embed *.go
//go:embed internal/bpred/*.go internal/cache/*.go internal/control/*.go
//go:embed internal/core/*.go internal/cpu/*.go internal/dtm/*.go
//go:embed internal/dvfs/*.go internal/experiments/*.go internal/floorplan/*.go
//go:embed internal/geom/*.go internal/hotspot/*.go internal/merit/*.go
//go:embed internal/obs/*.go internal/power/*.go internal/rc/*.go
//go:embed internal/sensor/*.go internal/stats/*.go internal/trace/*.go
var sources embed.FS

var fingerprint = sync.OnceValues(func() (string, error) {
	sum, err := sourceSum(sources)
	if err != nil {
		return "", err
	}
	// The compiler is part of what a result depends on: it may fuse a
	// multiply and an add on one architecture and not on another.
	return sum + "/" + runtime.Version() + "/" + runtime.GOARCH, nil
})

// SourceFingerprint returns the digest of the simulation sources compiled
// into the binary, followed by the Go version and architecture.
func SourceFingerprint() (string, error) { return fingerprint() }

// sourceSum is the hex sha256 over the path, length and bytes of every
// non-test .go file in fsys, in path order. Test files are skipped: they
// are embedded with their packages but never run in a simulation.
func sourceSum(fsys fs.FS) (string, error) {
	h := sha256.New()
	err := fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		data, err := fs.ReadFile(fsys, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source fingerprint: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
