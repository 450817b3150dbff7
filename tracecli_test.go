// End-to-end trace schema test: build dtmsim, trace a run per policy, and
// parse the JSONL output. This is the executable definition of the
// trace-file contract (obs.SchemaVersion) as seen from outside the
// process — what CI's observability job and any downstream analysis
// script rely on.
package hybriddtm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"hybriddtm/internal/obs"
	"hybriddtm/internal/report"
)

// TestTraceCLI runs dtmsim -trace-out for each paper policy and checks
// the stream: valid JSON per line, begin/end framing with the current
// schema version, and thermal-step, sensor, and actuation events present.
func TestTraceCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dtmsim and runs four traced simulations")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, exeName("dtmsim"))
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/dtmsim").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	for _, policy := range []string{"fg", "dvs", "pi-hyb", "hyb"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			path := filepath.Join(dir, policy+".jsonl")
			cmd := exec.Command(bin, "-bench", "gzip", "-policy", policy,
				"-insts", "200000", "-trace-out", path)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("dtmsim: %v\n%s", err, out)
			}
			checkJSONLTrace(t, path, policy)
		})
	}
}

// checkJSONLTrace parses one trace file and asserts the schema contract,
// then checks that report.ReadTraceFile's summary agrees with the raw scan.
func checkJSONLTrace(t *testing.T, path, policy string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	kinds := map[string]int{}
	var first, last map[string]any
	var switches int64
	var duration float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		var rec map[string]any
		if err := json.Unmarshal(bytes.TrimSpace(sc.Bytes()), &rec); err != nil {
			t.Fatalf("%s line %d: invalid JSON: %v", path, line, err)
		}
		ev, _ := rec["ev"].(string)
		if ev == "" {
			t.Fatalf("%s line %d: record without \"ev\" discriminator", path, line)
		}
		kinds[ev]++
		switch ev {
		case "step":
			dt, _ := rec["dt"].(float64)
			duration += dt
		case "actuation":
			if rec["switch"] == true {
				switches++
			}
		}
		if first == nil {
			first = rec
		}
		last = rec
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if first["ev"] != "begin" || first["schema"] != float64(obs.SchemaVersion) {
		t.Errorf("header = %v, want ev=begin schema=%d", first, obs.SchemaVersion)
	}
	if first["benchmark"] != "gzip" {
		t.Errorf("header benchmark = %v", first["benchmark"])
	}
	if last["ev"] != "end" {
		t.Errorf("final record = %v, want ev=end", last)
	}
	wantEvents := float64(line - 2) // all records minus header and footer
	if last["events"] != wantEvents {
		t.Errorf("footer count %v != %v event records", last["events"], wantEvents)
	}
	// The acceptance contract: every policy's trace carries thermal steps,
	// sensor samples, and applied actuations.
	for _, ev := range []string{"step", "sensor", "decision", "actuation"} {
		if kinds[ev] == 0 {
			t.Errorf("policy %s: no %q events in trace (kinds: %v)", policy, ev, kinds)
		}
	}

	sum, err := report.ReadTraceFile(path)
	if err != nil {
		t.Fatalf("report.ReadTraceFile: %v", err)
	}
	if float64(sum.Events) != last["events"] {
		t.Errorf("summary Events = %d, footer %v", sum.Events, last["events"])
	}
	if sum.DVSSwitches != switches {
		t.Errorf("summary DVSSwitches = %d, want %d actuation records with switch:true", sum.DVSSwitches, switches)
	}
	if sum.Duration != duration {
		t.Errorf("summary Duration = %v, want Σ step dt = %v", sum.Duration, duration)
	}
}
