//go:build !race

// Golden regression tests over the paper's headline numbers, pinned at a
// fixed small instruction budget so future performance or refactoring PRs
// cannot silently break the reproduction. The budget (10 M instructions,
// default warm-up/settle phases — shorter phases leave the die too cool
// for DTM to engage at all) and the benchmark subset were calibrated
// empirically: a sweep of all nine benchmarks at this budget showed bzip2
// alone reproduces the full-suite optima — the duty-3 ILP/DVS crossover
// (duty 20 for ideal DVS) and both hybrids beating DVS — at a fraction of
// the cost (~30 simulations, a few minutes). Excluded under -race: these
// are serial numeric regressions (concurrency is covered by the
// determinism and singleflight tests in internal/experiments) and the
// race detector's ~10× slowdown on the heaviest compute in the repo buys
// nothing here.
package hybriddtm_test

import (
	"context"
	"testing"

	"hybriddtm/internal/core"
	"hybriddtm/internal/experiments"
	"hybriddtm/internal/trace"
)

// goldenBenchmarks is the calibrated subset: the full nine-benchmark means
// are reproduced in EXPERIMENTS.md; this subset keeps the same optima at a
// fraction of the cost. Calibrated margins at 10 M instructions: the duty-3
// stall optimum beats the runner-up (duty 2.5) by 0.0039 slowdown, the
// duty-20 ideal optimum beats duty 3 by 0.0089, and the tightest Fig4 gap
// (Hyb vs. DVS, stalled) is 0.0026.
var goldenBenchmarks = []string{"bzip2"}

func goldenRunner(t *testing.T) *experiments.Runner {
	t.Helper()
	opts := experiments.DefaultOptions()
	opts.Instructions = 10_000_000
	opts.Config = core.DefaultConfig()
	opts.Benchmarks = nil
	for _, name := range goldenBenchmarks {
		p, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("benchmark %s missing", name)
		}
		opts.Benchmarks = append(opts.Benchmarks, p)
	}
	r, err := experiments.NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestGoldenNumbers declares the headline experiments on one plan, runs
// them as one batch, and asserts the paper's claims in subtests.
func TestGoldenNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regressions are slow")
	}
	p := experiments.NewPlan(goldenRunner(t))
	stall, ideal := p.Fig3a(true), p.Fig3a(false)
	fig4 := []*experiments.Fig4Result{p.Fig4(true), p.Fig4(false)}
	steps := []*experiments.StepSizeResult{p.StepSizeStudy(true), p.StepSizeStudy(false)}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	t.Run("Fig3a-crossover", func(t *testing.T) {
		if d := stall.BestDuty(); d != 3 {
			t.Errorf("Fig3a(stall) best duty = %g, want 3 (the paper's §5.1 crossover)\n%s", d, stall)
		}
		if d := ideal.BestDuty(); d != 20 {
			t.Errorf("Fig3a(ideal) best duty = %g, want 20 (mildest gating)\n%s", d, ideal)
		}
	})

	t.Run("Fig4-hybrid-beats-DVS", func(t *testing.T) {
		for _, f4 := range fig4 {
			dvs := f4.Mean("DVS")
			for _, hyb := range []string{"PI-Hyb", "Hyb"} {
				if m := f4.Mean(hyb); m >= dvs {
					t.Errorf("stall=%v: %s mean slowdown %.4f !< DVS %.4f (paper: hybrids reduce DTM overhead)",
						f4.Stall, hyb, m, dvs)
				}
			}
			if f4.Violations["PI-Hyb"] || f4.Violations["Hyb"] {
				t.Errorf("stall=%v: hybrid policy violated the thermal limit", f4.Stall)
			}
		}
	})

	t.Run("StepSize-bounded", func(t *testing.T) {
		// Paper §4.1 claims DVS performance differs by at most 0.4 %
		// across ladder granularities. That bound does NOT reproduce on
		// this stack: the sensor path here quantizes and dithers readings
		// (see DESIGN.md), which makes frequent multi-step setting changes
		// an observable cost, so the measured spread at the golden budget
		// is 6.3 % with stalled switches (binary 1.133 … continuous 1.168)
		// and 2.0 % idealized. The regression pins the repo's own
		// calibrated envelope instead — loose enough for noise, tight
		// enough to catch a broken ladder or controller — plus the
		// engineering claim the bound supports: binary DVS stays within a
		// few percent of the best ladder (with stalled switches it is the
		// best), which is why Hyb can afford to use binary DVS.
		for i, c := range []struct {
			stall bool
			bound float64
		}{{true, 0.09}, {false, 0.03}} {
			ss := steps[i]
			if sp := ss.MaxSpread(); sp >= c.bound {
				t.Errorf("stall=%v: DVS step-size spread = %.4f, want < %.2f\n%s",
					c.stall, sp, c.bound, ss)
			}
			binary, best := ss.MeanSlowdown[2], 2.0
			for _, m := range ss.MeanSlowdown {
				if m < best {
					best = m
				}
			}
			if binary >= best+0.04 {
				t.Errorf("stall=%v: binary DVS mean %.4f is not within 0.04 of the best ladder (%.4f)",
					c.stall, binary, best)
			}
		}
	})
}
