// End-to-end tests for the provenance/reporting surface: manifests
// written beside artifacts, trace-sink failures surfacing in the exit
// code, the BENCH snapshot pipeline, and dtmreport's byte-stable report.
package hybriddtm_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hybriddtm/internal/obs"
)

// buildBins compiles the named commands once into a temp dir and returns
// their paths.
func buildBins(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	pkgs := make([]string, len(names))
	for i, n := range names {
		pkgs[i] = "./cmd/" + n
	}
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator))
	build.Args = append(build.Args, pkgs...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bins := make(map[string]string, len(names))
	for _, n := range names {
		bins[n] = filepath.Join(dir, exeName(n))
	}
	return bins
}

// TestTraceSinkFailureExitsNonzero is the contract that a failed trace
// sink cannot fail silently: writing the trace to a device that rejects
// every write must turn into a nonzero exit and an error on stderr, even
// though the simulation itself succeeds.
func TestTraceSinkFailureExitsNonzero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dtmsim")
	}
	if runtime.GOOS != "linux" {
		t.Skip("needs /dev/full")
	}
	bins := buildBins(t, "dtmsim")
	var stderr bytes.Buffer
	cmd := exec.Command(bins["dtmsim"], "-bench", "gzip", "-policy", "hyb",
		"-insts", "200000", "-quiet", "-trace-out", "/dev/full")
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		t.Fatalf("dtmsim exited 0 with a failing trace sink\nstderr:\n%s", stderr.String())
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("dtmsim did not run: %v", err)
	}
	if !strings.Contains(stderr.String(), "trace-out") {
		t.Errorf("stderr does not name the failed sink:\n%s", stderr.String())
	}
}

// TestManifestWrittenByCLIs checks the provenance contract: every
// invocation with an output flag leaves a loadable manifest.json beside
// its first artifact, stamped with tool, argv, config hash, and
// environment. experiments additionally writes a BENCH snapshot that the
// comparator accepts.
func TestManifestWrittenByCLIs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dtmsim and experiments")
	}
	bins := buildBins(t, "dtmsim", "experiments", "dtmreport")

	t.Run("dtmsim", func(t *testing.T) {
		dir := t.TempDir()
		tracePath := filepath.Join(dir, "run.jsonl")
		outPath := filepath.Join(dir, "results.json")
		cmd := exec.Command(bins["dtmsim"], "-bench", "gzip", "-policy", "hyb",
			"-insts", "200000", "-quiet", "-trace-out", tracePath, "-out", outPath)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("dtmsim: %v\n%s", err, out)
		}
		m, err := obs.LoadManifest(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatalf("manifest not loadable: %v", err)
		}
		if m.Tool != "dtmsim" || m.ConfigHash == "" || m.GoVersion == "" || len(m.Args) == 0 {
			t.Errorf("manifest underpopulated: %+v", m)
		}
		if len(m.Benchmarks) != 1 || m.Benchmarks[0] != "gzip" {
			t.Errorf("manifest benchmarks = %v, want [gzip]", m.Benchmarks)
		}
		if len(m.Outputs) != 2 {
			t.Errorf("manifest outputs = %v, want trace + results", m.Outputs)
		}
		if m.WallClockS <= 0 || m.Start.IsZero() {
			t.Errorf("manifest timing not stamped: wall=%v start=%v", m.WallClockS, m.Start)
		}
	})

	t.Run("experiments", func(t *testing.T) {
		dir := t.TempDir()
		outPath := filepath.Join(dir, "results.json")
		cmd := exec.Command(bins["experiments"], "-insts", "200000", "-bench", "gzip",
			"-quiet", "-out", outPath, "-snapshot-out", dir, "bench")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("experiments: %v\n%s", err, out)
		}
		m, err := obs.LoadManifest(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatalf("manifest not loadable: %v", err)
		}
		if m.Tool != "experiments" || m.Workers < 1 {
			t.Errorf("manifest underpopulated: %+v", m)
		}

		// The snapshot must exist under its canonical BENCH_ name, load,
		// and compare cleanly against itself through the CLI comparator.
		matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		if err != nil || len(matches) != 1 {
			t.Fatalf("BENCH snapshot files = %v (err %v), want exactly one", matches, err)
		}
		snap, err := obs.LoadBenchSnapshot(matches[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := snap.Metric("sim.insts_per_sec"); !ok {
			t.Errorf("snapshot missing throughput metric: %+v", snap.Metrics)
		}
		if out, err := exec.Command(bins["dtmreport"],
			"-compare-base", matches[0], "-compare-head", matches[0]).CombinedOutput(); err != nil {
			t.Errorf("self-comparison failed: %v\n%s", err, out)
		}
	})
}

// TestDtmreportGolden pins the report CLI end to end: against the
// committed fixtures it must reproduce the golden HTML and Markdown
// byte for byte (the library-level golden test covers rendering; this one
// covers flag wiring and file loading through a real process).
func TestDtmreportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dtmreport")
	}
	bins := buildBins(t, "dtmreport")
	dir := t.TempDir()
	htmlPath := filepath.Join(dir, "report.html")
	mdPath := filepath.Join(dir, "report.md")
	cmd := exec.Command(bins["dtmreport"], "-o", htmlPath, "-md", mdPath,
		filepath.Join("internal", "report", "testdata", "golden_input"),
		filepath.Join("internal", "core", "testdata"))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("dtmreport: %v\n%s", err, out)
	}
	for got, golden := range map[string]string{
		htmlPath: filepath.Join("internal", "report", "testdata", "golden_report.html"),
		mdPath:   filepath.Join("internal", "report", "testdata", "golden_report.md"),
	} {
		g, err := os.ReadFile(got)
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s (%d bytes) differs from %s (%d bytes)", got, len(g), golden, len(w))
		}
	}

	// The perf gate: a throughput drop past the threshold exits nonzero.
	base := filepath.Join("internal", "report", "testdata", "golden_input", "BENCH_bbbbbbbbbbbb.json")
	head := filepath.Join("internal", "report", "testdata", "golden_input", "BENCH_aaaaaaaaaaaa.json")
	gate := exec.Command(bins["dtmreport"], "-compare-base", base, "-compare-head", head,
		"-threshold", "0.05", "-compare-metrics", "sim.insts_per_sec")
	out, err := gate.CombinedOutput()
	if err == nil {
		t.Fatalf("10%% throughput drop passed a 5%% gate:\n%s", out)
	}
	if !strings.Contains(string(out), "REGRESSION") {
		t.Errorf("gate failure does not show the regressed metric:\n%s", out)
	}
	// The fixtures carry sim.stage.*_frac, so the gate failure must also
	// name the stage whose share of loop time grew the most.
	if !strings.Contains(string(out), "fastest-growing stage: thermal") {
		t.Errorf("gate failure does not name the suspect stage:\n%s", out)
	}

	// A named metric the snapshots lack fails the gate, by name.
	out, err = exec.Command(bins["dtmreport"], "-compare-base", base, "-compare-head", base,
		"-compare-metrics", "sim.insts_per_sec,serve.jobs_per_sec").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "serve.jobs_per_sec (not in base)") {
		t.Errorf("gate on a missing metric: err=%v, want exit 1 naming it:\n%s", err, out)
	}

	// A stray positional argument would end flag parsing and drop the
	// flags after it, so compare mode rejects it with a usage error.
	out, err = exec.Command(bins["dtmreport"], "-compare-base", base, "-compare-head", base, "extra.json",
		"-threshold", "0.5", "-compare-metrics", "serve.jobs_per_sec").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "no positional arguments") || !strings.Contains(string(out), "extra.json") {
		t.Errorf("compare mode with a positional argument: err=%v, want a usage error naming it:\n%s", err, out)
	}
}
