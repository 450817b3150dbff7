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
// batch, follows a Cohort's shared one, or times its stages with a
// StageProfiler. The hot loop runs this step
// every 10k simulated cycles, so a single stray allocation multiplies into
// GC pressure across the paper's billion-instruction sweeps.
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
	ownStep := func(name string, cfg Config) {
		sim, err := New(cfg, gzipProfile(t), pol)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.start(context.Background()); err != nil {
			t.Fatal(err)
		}
		sim.begin(budget)
		own := func() {
			if err := sim.step(nil); err != nil {
				t.Fatal(err)
			}
		}
		// A few steps size every reusable buffer, as the start of Run does.
		for i := 0; i < 40; i++ {
			own()
		}
		if allocs := testing.AllocsPerRun(50, own); allocs != 0 {
			t.Errorf("%s step allocates %.1f times per iteration, want 0", name, allocs)
		}
	}
	ownStep("own-core", cfg)

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
