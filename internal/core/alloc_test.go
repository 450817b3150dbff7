package core

import (
	"testing"

	"hybriddtm/internal/cpu"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/sensor"
)

// TestCoupledStepAllocationFree pins the zero-allocation contract of the
// coupled-loop step pipeline: once the simulator is warm (buffers sized,
// thermal factorizations cached), one full step — execute, map activity to
// blocks, evaluate power, advance the thermal model, read sensors, run the
// policy — must not touch the heap. The hot loop runs this pipeline every
// 10k simulated cycles, so a single stray allocation multiplies into GC
// pressure across the paper's billion-instruction sweeps.
func TestCoupledStepAllocationFree(t *testing.T) {
	cfg := quickConfig()
	ladder, err := dvfs.Binary(cfg.Tech, cfg.VMinFrac)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := dtm.Hyb(cfg.Trigger, 0.4, 2.0/3, ladder)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg, gzipProfile(t), pol)
	if err != nil {
		t.Fatal(err)
	}
	// A short run settles the simulator exactly like Run does: init
	// steady state, warm caches, size every reusable buffer.
	if _, err := sim.Run(200_000); err != nil {
		t.Fatal(err)
	}

	op := sim.ladder.Point(0)
	dt := float64(cfg.ThermalStepCycles) / op.F
	var act cpu.Activity
	var activity, pvec, temps, readings []float64
	temps = sim.tm.BlockTemps(temps)

	step := func() {
		act.Reset()
		if _, err := sim.core.RunGated(uint64(cfg.ThermalStepCycles), cpu.Gates{}, &act); err != nil {
			t.Fatal(err)
		}
		activity, err = act.BlockActivity(sim.fp, activity)
		if err != nil {
			t.Fatal(err)
		}
		pvec, err = sim.pm.Compute(pvec, activity, 1, op.V, op.F, temps)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.tm.Step(pvec, dt); err != nil {
			t.Fatal(err)
		}
		temps = sim.tm.BlockTemps(temps)
		readings, err = sim.bank.Read(readings, temps)
		if err != nil {
			t.Fatal(err)
		}
		_ = sim.policy.Sample(sensor.Max(readings), dt)
	}
	step() // size activity/pvec/readings before measuring

	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("coupled-loop step allocates %.1f times per iteration, want 0", allocs)
	}
}
