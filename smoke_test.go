// End-to-end smoke tests: build every binary in cmd/ and examples/ once,
// then run each with a tiny workload and assert it exits 0 and prints
// something. These catch wiring regressions (flag parsing, factory
// plumbing, ctx threading) that package tests miss.
package hybriddtm_test

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func exeName(name string) string {
	if runtime.GOOS == "windows" {
		return name + ".exe"
	}
	return name
}

func TestSmokeBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs all binaries")
	}
	dir := t.TempDir()
	// go build places one binary per main package in -o dir.
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/...", "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cases := []struct {
		name string
		bin  string
		args []string
	}{
		{"dtmsim-one", "dtmsim", []string{"-bench", "gzip", "-policy", "hyb", "-insts", "200000"}},
		{"dtmsim-suite", "dtmsim", []string{"-bench", "gzip,art", "-policy", "dvs", "-insts", "200000", "-workers", "2"}},
		{"dtmsim-trace", "dtmsim", []string{"-bench", "gzip", "-policy", "hyb", "-insts", "200000",
			"-trace-out", filepath.Join(dir, "smoke.jsonl"), "-metrics", "-quiet"}},
		{"experiments", "experiments", []string{"-insts", "200000", "-bench", "gzip", "-workers", "2", "bench"}},
		{"dtmreport", "dtmreport", []string{"-o", "-",
			filepath.Join("internal", "report", "testdata", "golden_input"),
			filepath.Join("internal", "core", "testdata")}},
		{"hotspot", "hotspot", []string{"-power", "30"}},
		{"tracegen", "tracegen", []string{"-bench", "gzip", "-n", "1000", "-o", filepath.Join(dir, "gzip.trc")}},
		{"quickstart", "quickstart", []string{"-insts", "200000", "-quick"}},
		{"crossover", "crossover", []string{"-insts", "200000", "-quick", "gzip"}},
		{"proactive", "proactive", []string{"-insts", "200000", "-quick", "gzip"}},
		{"thermalmap", "thermalmap", []string{"-ms", "0.5", "art"}},
		{"customfloorplan", "customfloorplan", nil},
	}

	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.bin] = true
	}
	for _, name := range []string{"dtmsim", "experiments", "dtmreport", "hotspot", "tracegen",
		"quickstart", "crossover", "proactive", "thermalmap", "customfloorplan"} {
		if !covered[name] {
			t.Fatalf("binary %s missing from smoke cases", name)
		}
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(dir, exeName(tc.bin)), tc.args...)
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s",
					tc.bin, tc.args, err, stdout.String(), stderr.String())
			}
			if stdout.Len() == 0 {
				t.Errorf("%s %v produced no stdout\nstderr:\n%s", tc.bin, tc.args, stderr.String())
			}
		})
	}

	// Result cache: a warm run reads every result back and prints what
	// the cold run printed, and a snapshot of cache hits is refused.
	t.Run("experiments-cache", func(t *testing.T) {
		t.Parallel()
		bin := filepath.Join(dir, exeName("experiments"))
		args := []string{"-cache", t.TempDir(), "-insts", "200000", "-bench", "gzip", "-workers", "2", "3a"}
		var outs [2][]byte
		var logs [2]string
		for i := range outs {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("run %d: %v\n%s", i, err, stderr.String())
			}
			outs[i], logs[i] = stdout.Bytes(), stderr.String()
		}
		if !bytes.Equal(outs[0], outs[1]) {
			t.Errorf("warm output differs from cold:\n%s\nvs\n%s", outs[1], outs[0])
		}
		hits := regexp.MustCompile(`pool\.cache_hits +counter +(\d+)`)
		cold, warm := hits.FindStringSubmatch(logs[0]), hits.FindStringSubmatch(logs[1])
		if cold == nil || cold[1] != "0" || warm == nil || warm[1] == "0" {
			t.Errorf("want cache hits on the warm run only:\ncold:\n%s\nwarm:\n%s", logs[0], logs[1])
		}
		out, err := exec.Command(bin, append([]string{"-snapshot-out", t.TempDir()}, args...)...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "-snapshot-out") {
			t.Errorf("-cache with -snapshot-out: err %v, output %s", err, out)
		}
	})

	// tracegen round-trip: the recorded trace must be inspectable.
	t.Run("tracegen-inspect", func(t *testing.T) {
		t.Parallel()
		trc := filepath.Join(dir, "rt.trc")
		if out, err := exec.Command(filepath.Join(dir, exeName("tracegen")),
			"-bench", "art", "-n", "1000", "-o", trc).CombinedOutput(); err != nil {
			t.Fatalf("record: %v\n%s", err, out)
		}
		var stdout bytes.Buffer
		cmd := exec.Command(filepath.Join(dir, exeName("tracegen")), "-inspect", trc)
		cmd.Stdout = &stdout
		if err := cmd.Run(); err != nil {
			t.Fatalf("inspect: %v", err)
		}
		if stdout.Len() == 0 {
			t.Error("inspect produced no output")
		}
	})
}
