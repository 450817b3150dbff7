package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden trace fixtures")

// traceConfig is quickConfig with a fast sensor bank (1 MHz instead of
// 10 kHz) so a run of a few dozen thermal steps still contains sensor
// samples, policy decisions, and actuations.
func traceConfig() Config {
	cfg := quickConfig()
	cfg.Sensors.SampleRate = 1e6
	return cfg
}

func hybPolicy(t *testing.T, cfg Config) dtm.Policy {
	t.Helper()
	ladder, err := dvfs.Binary(cfg.Tech, cfg.VMinFrac)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := dtm.Hyb(cfg.Trigger, 0.4, 1.0/3, ladder)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// countTracer tallies events by kind and sanity-checks the borrowed
// slices at emission time (the only moment they are valid).
type countTracer struct {
	t      *testing.T
	meta   obs.Meta
	counts map[obs.Kind]int
	ended  bool
}

func (c *countTracer) Begin(meta obs.Meta) { c.meta = meta }
func (c *countTracer) End()                { c.ended = true }
func (c *countTracer) Emit(ev *obs.Event) {
	c.counts[ev.Kind]++
	nb := len(c.meta.Blocks)
	switch ev.Kind {
	case obs.KindStep:
		if len(ev.Temps) != nb || len(ev.Power) != nb {
			c.t.Errorf("step event has %d temps / %d power entries, want %d each",
				len(ev.Temps), len(ev.Power), nb)
		}
		if ev.Dt <= 0 {
			c.t.Errorf("step event with non-positive dt %v", ev.Dt)
		}
	case obs.KindSensor:
		if len(ev.Readings) != nb {
			c.t.Errorf("sensor event has %d readings, want %d", len(ev.Readings), nb)
		}
	case obs.KindCrossing:
		if ev.Threshold != "trigger" && ev.Threshold != "emergency" {
			c.t.Errorf("crossing threshold %q", ev.Threshold)
		}
	}
}

// TestTraceAllPolicies checks the acceptance criterion that every policy's
// event stream contains thermal-step, sensor, and actuation events, and
// that the per-run metadata is faithful.
func TestTraceAllPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-policy integration run; minutes under -race on one core")
	}
	cfg := traceConfig()
	ladder, err := dvfs.Binary(cfg.Tech, cfg.VMinFrac)
	if err != nil {
		t.Fatal(err)
	}
	policies := map[string]func() (dtm.Policy, error){
		"fg":     func() (dtm.Policy, error) { return dtm.FetchGating(cfg.Trigger, dtm.DefaultFGGain, 2.0/3) },
		"dvs":    func() (dtm.Policy, error) { return dtm.DVSBinary(cfg.Trigger, ladder) },
		"pi-hyb": func() (dtm.Policy, error) { return dtm.PIHyb(cfg.Trigger, dtm.DefaultFGGain, 1.0/3, ladder) },
		"hyb":    func() (dtm.Policy, error) { return dtm.Hyb(cfg.Trigger, 0.4, 1.0/3, ladder) },
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			pol, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			ct := &countTracer{t: t, counts: make(map[obs.Kind]int)}
			c := cfg
			c.Tracer = ct
			sim, err := New(c, gzipProfile(t), pol)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			if !ct.ended {
				t.Error("End never called")
			}
			if ct.meta.Benchmark != "gzip" || ct.meta.Policy != pol.Name() {
				t.Errorf("meta = %+v", ct.meta)
			}
			if ct.meta.Trigger != cfg.Trigger || ct.meta.Emergency != cfg.EmergencyThreshold {
				t.Errorf("meta thresholds = %v/%v", ct.meta.Trigger, ct.meta.Emergency)
			}
			for _, kind := range []obs.Kind{obs.KindStep, obs.KindSensor, obs.KindDecision, obs.KindActuation} {
				if ct.counts[kind] == 0 {
					t.Errorf("no %s events emitted", kind)
				}
			}
			// Every sensor sample produces exactly one decision.
			if ct.counts[obs.KindSensor] != ct.counts[obs.KindDecision] {
				t.Errorf("sensor events %d != decision events %d",
					ct.counts[obs.KindSensor], ct.counts[obs.KindDecision])
			}
			// gzip starts hot on this package, so the trigger threshold
			// must be crossed at least once.
			if ct.counts[obs.KindCrossing] == 0 {
				t.Error("no crossing events on a hot benchmark")
			}
		})
	}
}

// TestTracerEndOnError checks End fires even when the run aborts, so
// sinks flush what they saw — the post-mortem case tracing exists for.
func TestTracerEndOnError(t *testing.T) {
	cfg := traceConfig()
	cfg.MaxWallTime = 1e-9 // guaranteed abort on the first step
	ct := &countTracer{t: t, counts: make(map[obs.Kind]int)}
	cfg.Tracer = ct
	sim, err := New(cfg, gzipProfile(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1_000_000); err == nil {
		t.Fatal("run succeeded despite absurd MaxWallTime")
	}
	if !ct.ended {
		t.Error("End not called on an aborted run")
	}
}

// TestGoldenTrace locks the JSONL schema: a short deterministic
// bzip2/Hyb run must serialize byte-identically to the checked-in
// fixture. Run with -update after an intentional schema change (and bump
// obs.SchemaVersion if the change is breaking).
func TestGoldenTrace(t *testing.T) {
	cfg := traceConfig()
	cfg.WarmupCycles = 100_000
	cfg.InitCycles = 100_000
	cfg.SettleInstructions = 100_000
	// bzip2 idles near 73.5 °C at this horizon — far below the paper's
	// 81.8 °C trigger. Pulling the thresholds under the idle temperature
	// makes the DTM engage from the first sample, so the fixture contains
	// decision/actuation/crossing records without simulating the
	// multi-millisecond heat-up.
	cfg.Trigger = 70
	cfg.EmergencyThreshold = 76
	prof, ok := trace.ByName("bzip2")
	if !ok {
		t.Fatal("bzip2 profile missing")
	}

	var jsonlBuf bytes.Buffer
	jsonl := obs.NewJSONL(&jsonlBuf)
	cfg.Tracer = jsonl
	sim, err := New(cfg, prof, hybPolicy(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Err(); err != nil {
		t.Fatal(err)
	}

	// Structural checks first, so a failure explains itself even when the
	// fixture is being regenerated.
	lines := strings.Split(strings.TrimSuffix(jsonlBuf.String(), "\n"), "\n")
	kinds := make(map[string]int)
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d invalid JSON: %v", i+1, err)
		}
		ev, _ := rec["ev"].(string)
		kinds[ev]++
	}
	if kinds["begin"] != 1 || kinds["end"] != 1 {
		t.Errorf("header/footer counts = %d/%d, want 1/1", kinds["begin"], kinds["end"])
	}
	for _, ev := range []string{"step", "sensor", "decision", "actuation"} {
		if kinds[ev] == 0 {
			t.Errorf("fixture run produced no %q events; widen the run", ev)
		}
	}

	path := filepath.Join("testdata", "trace_bzip2_hyb.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, jsonlBuf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with -update): %v", err)
	}
	if !bytes.Equal(jsonlBuf.Bytes(), want) {
		t.Errorf("%s drifted from golden fixture (%d vs %d bytes); if the schema change is intentional rerun with -update and bump obs.SchemaVersion for breaking changes",
			path, jsonlBuf.Len(), len(want))
	}
}
