package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/trace"
)

// forkCase is one policy run of the fork-equivalence suite: a policy
// constructor plus the config tweak the run uses (only policy-side fields,
// which a fork is free to change).
type forkCase struct {
	name string
	mk   func(cfg Config) (dtm.Policy, error)
	cfg  func(cfg Config) Config
}

// policy builds the case's policy for cfg.
func (c forkCase) policy(t *testing.T, cfg Config) dtm.Policy {
	t.Helper()
	p, err := c.mk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func forkCases() []forkCase {
	binary := func(cfg Config, mk func(*dvfs.Ladder) (dtm.Policy, error)) (dtm.Policy, error) {
		l, err := dvfs.Binary(cfg.Tech, cfg.VMinFrac)
		if err != nil {
			return nil, err
		}
		return mk(l)
	}
	same := func(cfg Config) Config { return cfg }
	return []forkCase{
		{"none", func(Config) (dtm.Policy, error) { return nil, nil }, same},
		{"fg", func(cfg Config) (dtm.Policy, error) {
			return dtm.FetchGating(cfg.Trigger, dtm.DefaultFGGain, 2.0/3)
		}, same},
		{"dvs", func(cfg Config) (dtm.Policy, error) {
			return binary(cfg, func(l *dvfs.Ladder) (dtm.Policy, error) { return dtm.DVSBinary(cfg.Trigger, l) })
		}, same},
		{"pi-hyb-ideal", func(cfg Config) (dtm.Policy, error) {
			return binary(cfg, func(l *dvfs.Ladder) (dtm.Policy, error) {
				return dtm.PIHyb(cfg.Trigger, dtm.DefaultFGGain, 1.0/20, l)
			})
		}, func(cfg Config) Config { cfg.DVSStall = false; return cfg }},
		{"hyb", func(cfg Config) (dtm.Policy, error) {
			return binary(cfg, func(l *dvfs.Ladder) (dtm.Policy, error) { return dtm.Hyb(cfg.Trigger, 0.4, 1.0/3, l) })
		}, same},
	}
}

// runTraced runs sim to n instructions with a JSONL tracer on cfg and
// returns the event stream and the Result.
func runTraced(t *testing.T, build func(Config) (*Simulator, error), cfg Config, n uint64) ([]byte, Result) {
	t.Helper()
	var buf bytes.Buffer
	jsonl := obs.NewJSONL(&buf)
	cfg.Tracer = jsonl
	sim, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestForkMatchesFresh is the fork half of the equivalence harness (the
// TestScalarBatchedEquivalence pattern): every run forked from one shared
// Warm must give the Result and the byte-identical JSONL event stream of
// a fresh New + Run, for bzip2 and gcc under no DTM, FG, DVS, PI-Hyb and
// Hyb. Forks are taken both in order, each after its sibling finished,
// and in reverse order with all copies made before any runs, the last one
// adopting the Warm's core — so neither a sibling's run nor the order of
// forking can leak into a result.
func TestForkMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("thirty coupled runs")
	}
	const insts = 300_000
	base := traceConfig()
	// Thresholds below the workloads' idle temperature so every policy
	// actuates (the TestScalarBatchedEquivalence trick).
	base.Trigger = 70
	base.EmergencyThreshold = 76
	cases := forkCases()
	for _, name := range []string{"bzip2", "gcc"} {
		prof, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("%s profile missing", name)
		}
		t.Run(name, func(t *testing.T) {
			freshTrace := make([][]byte, len(cases))
			freshRes := make([]Result, len(cases))
			for i, c := range cases {
				freshTrace[i], freshRes[i] = runTraced(t, func(cfg Config) (*Simulator, error) {
					return New(cfg, prof, c.policy(t, cfg))
				}, c.cfg(base), insts)
			}
			w, err := WarmUp(context.Background(), base, prof)
			if err != nil {
				t.Fatal(err)
			}
			check := func(order string, i int, tr []byte, res Result) {
				t.Helper()
				if res != freshRes[i] {
					t.Errorf("%s %s: Result diverged:\nfresh: %+v\nfork:  %+v", order, cases[i].name, freshRes[i], res)
				}
				if !bytes.Equal(tr, freshTrace[i]) {
					t.Errorf("%s %s: event stream diverged (%d vs %d bytes)", order, cases[i].name, len(freshTrace[i]), len(tr))
				}
			}

			for i, c := range cases {
				tr, res := runTraced(t, func(cfg Config) (*Simulator, error) {
					return NewFromWarm(cfg, prof, c.policy(t, cfg), w)
				}, c.cfg(base), insts)
				check("in order", i, tr, res)
			}

			// Reverse: copy every fork up front (the last adopts), then run.
			type fork struct {
				sim *Simulator
				buf *bytes.Buffer
				jl  *obs.JSONL
			}
			forks := make([]fork, len(cases))
			for i := len(cases) - 1; i >= 0; i-- {
				c := cases[i]
				cfg := c.cfg(base)
				f := fork{buf: new(bytes.Buffer)}
				f.jl = obs.NewJSONL(f.buf)
				cfg.Tracer = f.jl
				build := NewFromWarm
				if i == 0 {
					build = AdoptWarm
				}
				if f.sim, err = build(cfg, prof, c.policy(t, cfg), w); err != nil {
					t.Fatal(err)
				}
				forks[i] = f
			}
			for i := len(forks) - 1; i >= 0; i-- {
				res, err := forks[i].sim.Run(insts)
				if err != nil {
					t.Fatal(err)
				}
				if err := forks[i].jl.Err(); err != nil {
					t.Fatal(err)
				}
				check("reverse", i, forks[i].buf.Bytes(), res)
			}
		})
	}
}

// TestNewFromWarmChecksWarmFields pins the warm-field contract: a fork
// whose config differs from the Warm's in a field the warm state depends
// on is rejected, naming the field; policy-side fields are free; an
// adopted Warm cannot be forked again.
func TestNewFromWarmChecksWarmFields(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupCycles = 20_000
	cfg.InitCycles = 20_000
	prof := gzipProfile(t)
	w, err := WarmUp(context.Background(), cfg, prof)
	if err != nil {
		t.Fatal(err)
	}

	reject := []struct {
		field string
		edit  func(*Config)
	}{
		{"WarmupCycles", func(c *Config) { c.WarmupCycles++ }},
		{"CPU", func(c *Config) { c.CPU.ROBSize = 64 }},
		{"Sensors", func(c *Config) { c.Sensors.Seed++ }},
	}
	for _, r := range reject {
		c := cfg
		r.edit(&c)
		if _, err := NewFromWarm(c, prof, nil, w); err == nil || !strings.Contains(err.Error(), r.field) {
			t.Errorf("changed %s: err = %v, want a rejection naming it", r.field, err)
		}
	}
	other := prof
	other.Seed++
	if _, err := NewFromWarm(cfg, other, nil, w); err == nil || !strings.Contains(err.Error(), "Profile") {
		t.Errorf("changed profile seed: err = %v, want a rejection naming Profile", err)
	}

	accept := []struct {
		field string
		edit  func(*Config)
	}{
		{"DVSStall", func(c *Config) { c.DVSStall = !c.DVSStall }},
		{"Trigger", func(c *Config) { c.Trigger-- }},
		{"Tracer", func(c *Config) { c.Tracer = obs.NewJSONL(new(bytes.Buffer)) }},
		{"SettleInstructions", func(c *Config) { c.SettleInstructions /= 2 }},
	}
	for _, a := range accept {
		c := cfg
		a.edit(&c)
		if _, err := NewFromWarm(c, prof, nil, w); err != nil {
			t.Errorf("changed %s: %v, want the fork accepted", a.field, err)
		}
	}

	if _, err := AdoptWarm(cfg, prof, nil, w); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromWarm(cfg, prof, nil, w); err == nil {
		t.Error("forked a Warm whose core was already adopted")
	}
}

// TestWarmUpCanceled checks the warm step honors a canceled context.
func TestWarmUpCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := WarmUp(ctx, quickConfig(), gzipProfile(t)); !errors.Is(err, context.Canceled) {
		t.Errorf("WarmUp under a canceled context = %v, want context.Canceled", err)
	}
}
