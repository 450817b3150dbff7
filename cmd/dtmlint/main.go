// Command dtmlint is the repository's domain linter: a multichecker over
// the seven dtmlint analyzers (detguard, floatzone, unitcheck, tracegate,
// errsink, allocguard, lockcheck — see internal/analysis/... and
// DESIGN.md "Static analysis").
//
//	dtmlint ./...
//
// dtmlint loads and type-checks the requested packages itself (via
// `go list -export`) and exits 1 if any finding survives the
// //dtmlint:allow suppressions.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"hybriddtm/internal/analysis"
	"hybriddtm/internal/analysis/allocguard"
	"hybriddtm/internal/analysis/detguard"
	"hybriddtm/internal/analysis/errsink"
	"hybriddtm/internal/analysis/floatzone"
	"hybriddtm/internal/analysis/lockcheck"
	"hybriddtm/internal/analysis/tracegate"
	"hybriddtm/internal/analysis/unitcheck"
)

var analyzers = []*analysis.Analyzer{
	detguard.Analyzer,
	floatzone.Analyzer,
	unitcheck.Analyzer,
	tracegate.Analyzer,
	errsink.Analyzer,
	allocguard.Analyzer,
	lockcheck.Analyzer,
}

func main() {
	args := os.Args[1:]
	if len(args) == 1 && args[0] == "help" {
		usage(os.Stdout)
		return
	}

	var patterns []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			fmt.Fprintf(os.Stderr, "dtmlint: unknown flag %s\n", a)
			usage(os.Stderr)
			os.Exit(1)
		}
		patterns = append(patterns, a)
	}

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtmlint: %v\n", err)
		os.Exit(1)
	}
	total := 0
	for _, cp := range pkgs {
		findings, err := analysis.Run(cp, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dtmlint: %v\n", err)
			os.Exit(1)
		}
		analysis.Print(os.Stderr, findings)
		total += len(findings)
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "dtmlint: %d finding(s)\n", total)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  dtmlint [packages]   (default ./...)

Analyzers:`)
	for _, a := range analyzers {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Fprintf(w, "  %-10s %s\n", a.Name, doc)
	}
	fmt.Fprintln(w, `
Suppress a finding with a trailing or preceding comment:
  //dtmlint:allow <analyzer> <reason>`)
}
