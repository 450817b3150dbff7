// End-to-end smoke tests: build every binary in cmd/ and examples/ once,
// then run each with a tiny workload and assert it exits 0 and prints
// something. These catch wiring regressions (flag parsing, factory
// plumbing, ctx threading) that package tests miss.
package hybriddtm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
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

	covered := map[string]bool{"dtmserve": true} // the round trip below
	for _, tc := range cases {
		covered[tc.bin] = true
	}
	for _, name := range []string{"dtmsim", "dtmserve", "experiments", "dtmreport", "hotspot", "tracegen",
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

	// dtmserve round trip: every example job submitted over HTTP runs to
	// done, a traced job's trace streams, and an interrupt drains cleanly.
	t.Run("dtmserve-jobsfile", func(t *testing.T) {
		t.Parallel()
		smokeServe(t, filepath.Join(dir, exeName("dtmserve")), filepath.Join("examples", "serve", "jobs.jsonl"))
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

// smokeServe starts dtmserve on a free port, submits every job config in
// jobsFile, polls until each is done, fetches each traced job's trace,
// then interrupts the server and requires exit 0.
func smokeServe(t *testing.T, bin, jobsFile string) {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-quiet")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // no-op once the server has exited
	// The server prints its address once it listens; the rest of stderr
	// is kept for the failure message.
	var log bytes.Buffer
	sc := bufio.NewScanner(stderr)
	base := ""
	for base == "" && sc.Scan() {
		log.WriteString(sc.Text() + "\n")
		if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
			base = addr
		}
	}
	if base == "" {
		t.Fatalf("dtmserve never reported its address:\n%s", log.String())
	}
	rest := make(chan struct{})
	go func() {
		_, _ = io.Copy(&log, stderr)
		close(rest)
	}()

	data, err := os.ReadFile(jobsFile)
	if err != nil {
		t.Fatal(err)
	}
	var ids, traced []string
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(line))
		if err != nil {
			t.Fatal(err)
		}
		var sub struct{ ID string }
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if err != nil || (resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK) {
			t.Fatalf("submit %s: HTTP %d: %v", line, resp.StatusCode, err)
		}
		ids = append(ids, sub.ID)
		var jc struct{ Trace bool }
		if err := json.Unmarshal(line, &jc); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if jc.Trace {
			traced = append(traced, sub.ID)
		}
	}
	if len(traced) == 0 {
		t.Fatalf("%s has no traced job", jobsFile)
	}

	deadline := time.Now().Add(5 * time.Minute)
	for _, id := range ids {
		for state := ""; state != "done"; {
			if state == "failed" || state == "canceled" || time.Now().After(deadline) {
				t.Fatalf("job %s ended %q", id, state)
			}
			time.Sleep(20 * time.Millisecond)
			resp, err := http.Get(base + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var st struct{ State string }
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("status %s: %v", id, err)
			}
			state = st.State
		}
	}

	for _, id := range traced {
		resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("trace %s: HTTP %d: %v", id, resp.StatusCode, err)
		}
		lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
		if len(lines) < 2 || !json.Valid(lines[0]) || !json.Valid(lines[len(lines)-1]) {
			t.Fatalf("trace %s is not a JSONL event stream (%d bytes)", id, len(body))
		}
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rest:
	case <-time.After(time.Minute):
		t.Fatalf("dtmserve still running a minute after the interrupt:\n%s", log.String())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("dtmserve after interrupt: %v\n%s", err, log.String())
	}
}
