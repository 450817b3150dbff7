package dtm

import (
	"testing"

	"hybriddtm/internal/dvfs"
)

// heatCycle is one thermal episode at the sensor rate: cool, mildly over
// the trigger, severely over it long enough to saturate every controller,
// then cool again long enough for every latch and filter to release.
// Driven through it, each policy takes each of its branches: gating
// rises and clamps, PI-Hyb hands over from gating to DVS and back, Hyb
// crosses both thresholds, and the multi-step DVS ladder steps down and
// back up.
func heatCycle() []float64 {
	var r []float64
	for _, seg := range []struct {
		over float64
		n    int
	}{{-3, 50}, {0.2, 100}, {1.5, 100}, {3, 2000}, {-2, 2500}} {
		for i := 0; i < seg.n; i++ {
			r = append(r, testTrigger+seg.over)
		}
	}
	return r
}

// TestSampleAllocationFree pins the zero-allocation contract of every
// policy's Sample (and local toggling's SampleVector): the coupled loop
// calls one per sensor sample, so an allocation there multiplies into GC
// pressure across a run. Each row first checks that the heat cycle
// reaches the branches named in its want, then measures the whole cycle
// under AllocsPerRun.
func TestSampleAllocationFree(t *testing.T) {
	binary := binaryLadder(t)
	five, err := dvfs.NewLadder(dvfs.Default130nm(), 5, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	must := func(p Policy, err error) Policy {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	local, err := LocalToggling(testTrigger, DefaultFGGain, 0.5, testDomains())
	if err != nil {
		t.Fatal(err)
	}
	// covers reports which of a row's branches the cycle never reached.
	type covers func(ds []Decision) string
	toggles := func(on func(Decision) bool) covers {
		return func(ds []Decision) string {
			var seenOn, seenOff bool
			for _, d := range ds {
				seenOn, seenOff = seenOn || on(d), seenOff || !on(d)
			}
			if !seenOn || !seenOff {
				return "engage and release"
			}
			return ""
		}
	}
	gated := func(clamp float64) covers {
		return func(ds []Decision) string {
			var part, full bool
			for _, d := range ds {
				g := d.GateFrac + d.IntGate // local toggling gates issue, the rest fetch
				part = part || (g > 0 && g < clamp)
				full = full || g == clamp
			}
			switch {
			case !part:
				return "partial gating"
			case !full:
				return "the gate clamp"
			}
			return ""
		}
	}
	levels := func(want int) covers {
		return func(ds []Decision) string {
			seen := map[int]bool{}
			raised := false
			for i, d := range ds {
				seen[d.Level] = true
				raised = raised || (i > 0 && d.Level < ds[i-1].Level)
			}
			switch {
			case len(seen) < want:
				return "every DVS level"
			case !raised:
				return "a DVS level raise"
			}
			return ""
		}
	}
	handover := func(ds []Decision) string {
		var gate, dvs, back bool
		for _, d := range ds {
			gate = gate || (d.GateFrac > 0 && !dvs)
			dvs = dvs || (d.Level > 0 && gate)
			back = back || (d.Level == 0 && dvs)
		}
		if !back {
			return "gating, then DVS, then nominal"
		}
		return ""
	}
	nothing := func([]Decision) string { return "" }

	cycle := heatCycle()
	for _, tc := range []struct {
		p    Policy
		want covers
	}{
		{None(), nothing},
		{must(DVSBinary(testTrigger, binary)), toggles(func(d Decision) bool { return d.Level > 0 })},
		{must(DVSPI(testTrigger, five)), levels(5)},
		{must(FetchGating(testTrigger, DefaultFGGain, 2.0/3)), gated(2.0 / 3)},
		{must(FixedFG(testTrigger, 0.3)), toggles(func(d Decision) bool { return d.GateFrac > 0 })},
		{ClockGating(testTrigger), toggles(func(d Decision) bool { return d.ClockStop })},
		{must(PIHyb(testTrigger, DefaultFGGain, 1.0/3, binary)), handover},
		{must(Hyb(testTrigger, 0.4, 2.0/3, binary)), handover},
		{must(Proactive(must(PIHyb(testTrigger, DefaultFGGain, 1.0/3, binary)), 2e-3)), handover},
		{local, gated(0.5)},
	} {
		t.Run(tc.p.Name(), func(t *testing.T) {
			tc.p.Reset()
			ds := make([]Decision, len(cycle))
			for i, r := range cycle {
				ds[i] = tc.p.Sample(r, sampleDT)
			}
			if missing := tc.want(ds); missing != "" {
				t.Fatalf("heat cycle never reached %s", missing)
			}
			run := func() {
				tc.p.Reset()
				for _, r := range cycle {
					tc.p.Sample(r, sampleDT)
				}
			}
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Errorf("Sample allocates %.1f times per heat cycle, want 0", allocs)
			}
		})
	}

	t.Run("local-vector", func(t *testing.T) {
		// The integer domain follows the cycle; the others stay cool.
		readings := make([]float64, 5)
		for i := range readings {
			readings[i] = testTrigger - 4
		}
		var ds []Decision
		local.Reset()
		for _, r := range cycle {
			readings[0] = r
			d := local.SampleVector(readings, sampleDT)
			ds = append(ds, d)
			if d.FPGate != 0 || d.MemGate != 0 {
				t.Fatalf("cool domains gated: %+v", d)
			}
		}
		if missing := gated(0.5)(ds); missing != "" {
			t.Fatalf("heat cycle never reached %s", missing)
		}
		run := func() {
			local.Reset()
			for _, r := range cycle {
				readings[0] = r
				local.SampleVector(readings, sampleDT)
			}
		}
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("SampleVector allocates %.1f times per heat cycle, want 0", allocs)
		}
	})
}
