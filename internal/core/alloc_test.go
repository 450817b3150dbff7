package core

import (
	"context"
	"testing"

	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/obs"
)

// TestCoupledStepAllocationFree pins the zero-allocation contract of the
// coupled-loop step: once the simulator is warm (buffers sized, thermal
// factorizations cached), one full step — execute, map activity to
// blocks, evaluate power, advance the thermal model, read sensors, run the
// policy — must not touch the heap, whether the run executes its own cpu
// batch, follows a Cohort's shared one, times its stages with a
// StageProfiler, or switches DVS levels, stops the clock or gates fetch.
// The hot loop runs this step every 10k simulated cycles, so a single
// stray allocation multiplies into GC pressure across the paper's
// billion-instruction sweeps.
func TestCoupledStepAllocationFree(t *testing.T) {
	const budget = 1 << 40 // never reached: the window stays open
	cfg := quickConfig()
	ladder, err := dvfs.Binary(cfg.Tech, cfg.VMinFrac)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := dtm.Hyb(cfg.Trigger, 0.4, 2.0/3, ladder)
	if err != nil {
		t.Fatal(err)
	}
	// warm builds a run and steps it until every reusable buffer is
	// sized, as the start of Run does.
	warm := func(cfg Config, pol dtm.Policy) *Simulator {
		sim, err := New(cfg, gzipProfile(t), pol)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.start(context.Background()); err != nil {
			t.Fatal(err)
		}
		sim.begin(budget)
		for i := 0; i < 40; i++ {
			if err := sim.step(nil); err != nil {
				t.Fatal(err)
			}
		}
		return sim
	}
	ownStep := func(name string, cfg Config) {
		sim := warm(cfg, pol)
		own := func() {
			if err := sim.step(nil); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(50, own); allocs != 0 {
			t.Errorf("%s step allocates %.1f times per iteration, want 0", name, allocs)
		}
	}
	ownStep("own-core", cfg)

	// Every actuation branch — a DVS switch, stalled or deferred, a
	// clock stop and fetch gating — must stay off the heap too. A policy
	// cycles through them, one per sensor sample, and each measured
	// iteration runs one whole cycle: AllocsPerRun reports the integer
	// mean per iteration, so a branch taken less than once per iteration
	// would hide its allocation.
	for _, stall := range []bool{true, false} {
		acting := cfg
		acting.DVSStall = stall
		p := &cycling{ds: []dtm.Decision{{Level: 1}, {GateFrac: 0.3}, {ClockStop: true}, {}}}
		sim := warm(acting, p)
		switches := sim.l.res.DVSSwitches
		cycle := func() {
			for end := p.n + len(p.ds); p.n < end; {
				if err := sim.step(nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		const runs = 4 // AllocsPerRun adds one warm-up run
		if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
			t.Errorf("actuating (stall %v) steps allocate %.1f times per decision cycle, want 0", stall, allocs)
		}
		if got := sim.l.res.DVSSwitches - switches; got < 2*(runs+1) {
			t.Errorf("stall %v: %d DVS switches over %d decision cycles, want 2 per cycle", stall, got, runs+1)
		}
	}

	// The profiler's own windows must not allocate either; a counter
	// hook stands in for the clock.
	sp := obs.NewStageProfiler()
	var now int64
	sp.SetHooks(func() int64 { now++; return now })
	profiled := cfg
	profiled.Profiler = sp
	ownStep("profiled own-core", profiled)

	w, err := WarmUp(context.Background(), cfg, gzipProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCohort(w, budget)
	if err != nil {
		t.Fatal(err)
	}
	var members []*Simulator
	for i := 0; i < 2; i++ {
		// Both gate alike from the first sample: they never leave, and
		// the cohort runs gated batches.
		s, err := co.Join(cfg, gzipProfile(t), &script{ds: []dtm.Decision{{GateFrac: 0.25}}})
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, s)
	}
	f, err := co.Fork(members, true)
	if err != nil {
		t.Fatal(err)
	}
	follow := func() {
		if err := f.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		follow()
	}
	if len(f.sims) != len(members) {
		t.Fatal("a member left the cohort; the follow path is not measured")
	}
	if allocs := testing.AllocsPerRun(50, follow); allocs != 0 {
		t.Errorf("cohort step allocates %.1f times per iteration, want 0", allocs)
	}
}

// cycling is a policy that issues ds in turn, one decision per sample.
type cycling struct {
	ds []dtm.Decision
	n  int
}

func (p *cycling) Name() string { return "cycling" }
func (p *cycling) Reset()       { p.n = 0 }

func (p *cycling) Sample(_, _ float64) dtm.Decision {
	d := p.ds[p.n%len(p.ds)]
	p.n++
	return d
}
