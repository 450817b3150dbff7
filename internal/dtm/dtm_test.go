package dtm

import (
	"math"
	"testing"

	"hybriddtm/internal/dvfs"
)

const (
	testTrigger = 81.8
	sampleDT    = 1e-4 // 10 kHz
)

func binaryLadder(t *testing.T) *dvfs.Ladder {
	t.Helper()
	l, err := dvfs.Binary(dvfs.Default130nm(), 0.85)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNonePolicy(t *testing.T) {
	p := None()
	if p.Name() != "none" {
		t.Errorf("Name = %q", p.Name())
	}
	d := p.Sample(200, sampleDT) // even absurd heat provokes nothing
	if d != (Decision{}) {
		t.Errorf("None produced %+v", d)
	}
	p.Reset()
}

func TestDVSBinaryComparator(t *testing.T) {
	p, err := DVSBinary(testTrigger, binaryLadder(t))
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Sample(testTrigger-0.1, sampleDT); d.Level != 0 {
		t.Errorf("below trigger: level %d, want 0", d.Level)
	}
	if d := p.Sample(testTrigger, sampleDT); d.Level != 1 {
		t.Errorf("at trigger: level %d, want 1 (low)", d.Level)
	}
	if d := p.Sample(testTrigger+5, sampleDT); d.Level != 1 {
		t.Errorf("well above trigger: level %d, want 1", d.Level)
	}
	// Stateless: immediately releases below trigger.
	if d := p.Sample(testTrigger-0.1, sampleDT); d.Level != 0 {
		t.Errorf("back below trigger: level %d, want 0", d.Level)
	}
	if _, err := DVSBinary(testTrigger, nil); err == nil {
		t.Error("accepted nil ladder")
	}
}

func TestDVSPILowersUnderHeat(t *testing.T) {
	l, err := dvfs.NewLadder(dvfs.Default130nm(), 5, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DVSPI(testTrigger, l)
	if err != nil {
		t.Fatal(err)
	}
	// Cool: stays at nominal.
	for i := 0; i < 10; i++ {
		if d := p.Sample(testTrigger-3, sampleDT); d.Level != 0 {
			t.Fatalf("cool chip got level %d", d.Level)
		}
	}
	// Sustained 1.5° excess: level must descend.
	var level int
	for i := 0; i < 100; i++ {
		level = p.Sample(testTrigger+1.5, sampleDT).Level
	}
	if level == 0 {
		t.Error("PI DVS never lowered the setting under sustained heat")
	}
	// Severe heat: bottom of the ladder.
	for i := 0; i < 300; i++ {
		level = p.Sample(testTrigger+4, sampleDT).Level
	}
	if level != l.NumPoints()-1 {
		t.Errorf("severe heat: level %d, want lowest %d", level, l.NumPoints()-1)
	}
}

func TestDVSPIRecoversSlowly(t *testing.T) {
	// After heat subsides, the low-pass filter delays the return to
	// nominal: the level must come back up, but not on the very first cool
	// sample.
	l, err := dvfs.NewLadder(dvfs.Default130nm(), 5, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DVSPI(testTrigger, l)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		p.Sample(testTrigger+4, sampleDT)
	}
	first := p.Sample(testTrigger-2, sampleDT).Level
	if first == 0 {
		t.Error("setting snapped to nominal on the first cool sample despite the filter")
	}
	var level int
	for i := 0; i < 2000; i++ {
		level = p.Sample(testTrigger-2, sampleDT).Level
	}
	if level != 0 {
		t.Errorf("level %d after long cool period, want 0", level)
	}
}

func TestDVSPINeverRaisesWhileHot(t *testing.T) {
	l, err := dvfs.NewLadder(dvfs.Default130nm(), 10, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DVSPI(testTrigger, l)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for i := 0; i < 500; i++ {
		d := p.Sample(testTrigger+2, sampleDT)
		if d.Level < prev {
			t.Fatalf("level rose from %d to %d while above trigger", prev, d.Level)
		}
		prev = d.Level
	}
}

func TestFetchGatingIntegrates(t *testing.T) {
	p, err := FetchGating(testTrigger, DefaultFGGain, 2.0/3)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Sample(testTrigger-1, sampleDT); d.GateFrac != 0 {
		t.Errorf("cool chip gated at %v", d.GateFrac)
	}
	var g1, g2 float64
	for i := 0; i < 10; i++ {
		g1 = p.Sample(testTrigger+1, sampleDT).GateFrac
	}
	for i := 0; i < 10; i++ {
		g2 = p.Sample(testTrigger+1, sampleDT).GateFrac
	}
	if !(g2 > g1 && g1 > 0) {
		t.Errorf("gating did not ramp: %v then %v", g1, g2)
	}
	// Saturation at maxGate.
	for i := 0; i < 10000; i++ {
		g2 = p.Sample(testTrigger+3, sampleDT).GateFrac
	}
	if math.Abs(g2-2.0/3) > 1e-9 {
		t.Errorf("gate %v, want saturated at 2/3", g2)
	}
	// Unwind when cool.
	for i := 0; i < 10000; i++ {
		g2 = p.Sample(testTrigger-3, sampleDT).GateFrac
	}
	if g2 != 0 {
		t.Errorf("gate %v after long cool period, want 0", g2)
	}
}

func TestFetchGatingValidation(t *testing.T) {
	if _, err := FetchGating(testTrigger, DefaultFGGain, 0); err == nil {
		t.Error("accepted zero max gate")
	}
	if _, err := FetchGating(testTrigger, DefaultFGGain, 1); err == nil {
		t.Error("accepted max gate of 1")
	}
	if _, err := FetchGating(testTrigger, 0, 0.5); err == nil {
		t.Error("accepted zero gain")
	}
}

func TestFixedFG(t *testing.T) {
	p, err := FixedFG(testTrigger, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Sample(testTrigger-0.1, sampleDT); d.GateFrac != 0 {
		t.Errorf("below trigger gated %v", d.GateFrac)
	}
	if d := p.Sample(testTrigger+0.1, sampleDT); d.GateFrac != 0.5 {
		t.Errorf("above trigger gate %v, want 0.5", d.GateFrac)
	}
	if _, err := FixedFG(testTrigger, 1.0); err == nil {
		t.Error("accepted gate of 1")
	}
}

func TestClockGating(t *testing.T) {
	p := ClockGating(testTrigger)
	if d := p.Sample(testTrigger-0.1, sampleDT); d.ClockStop {
		t.Error("clock stopped below trigger")
	}
	d := p.Sample(testTrigger+0.1, sampleDT)
	if !d.ClockStop {
		t.Error("clock not stopped above trigger")
	}
	if d.GateFrac != 0 || d.Level != 0 {
		t.Errorf("clock gating also requested %+v", d)
	}
}

func TestPIHybCrossoverEngagesDVS(t *testing.T) {
	p, err := PIHyb(testTrigger, DefaultFGGain, 1.0/3, binaryLadder(t))
	if err != nil {
		t.Fatal(err)
	}
	// Mild stress: gating only, never DVS, gate below crossover.
	var d Decision
	for i := 0; i < 15; i++ {
		d = p.Sample(testTrigger+0.2, sampleDT)
		if d.Level != 0 {
			t.Fatalf("mild stress engaged DVS at sample %d", i)
		}
	}
	if d.GateFrac <= 0 {
		t.Error("mild stress produced no gating")
	}
	// Severe sustained stress: controller saturates, DVS engages, gating
	// released.
	for i := 0; i < 2000; i++ {
		d = p.Sample(testTrigger+3, sampleDT)
	}
	if d.Level == 0 {
		t.Error("severe stress never engaged DVS")
	}
	if d.GateFrac != 0 {
		t.Errorf("DVS active but still gating at %v", d.GateFrac)
	}
	// Recovery: below trigger, DVS disengages.
	for i := 0; i < 2000; i++ {
		d = p.Sample(testTrigger-1, sampleDT)
	}
	if d.Level != 0 || d.GateFrac != 0 {
		t.Errorf("did not recover to nominal: %+v", d)
	}
}

// TestPIHybNoWindup is PI-Hyb's anti-windup property. A sensor stuck
// high (95 °C) for N samples saturates the integral loop and engages DVS;
// readings 5 K below the trigger must then bring the policy back to idle
// in a number of samples that does not depend on N — an integral term
// that kept growing past saturation would take longer to unwind the longer
// it was stuck. Every decision meanwhile stays inside the actuators'
// range: gating in [0, crossover] and a level on the ladder. The crossover
// is DVS-stall's (one fetch cycle in three, experiments.CrossoverGateStall).
func TestPIHybNoWindup(t *testing.T) {
	const crossGate = 1.0 / 3
	ladder := binaryLadder(t)
	recovery := func(n int) int {
		t.Helper()
		p, err := PIHyb(testTrigger, DefaultFGGain, crossGate, ladder)
		if err != nil {
			t.Fatal(err)
		}
		check := func(phase string, i int, d Decision) {
			t.Helper()
			if d.GateFrac < 0 || d.GateFrac > crossGate || d.Level < 0 || d.Level >= ladder.NumPoints() {
				t.Fatalf("N=%d, %s sample %d: decision %+v outside gate [0, %v] or ladder [0, %d)",
					n, phase, i, d, crossGate, ladder.NumPoints())
			}
		}
		var d Decision
		for i := 0; i < n; i++ {
			d = p.Sample(95, sampleDT)
			check("stuck", i, d)
		}
		if d.Level == 0 {
			t.Fatalf("N=%d: a stuck-high sensor never engaged DVS", n)
		}
		for i := 1; i <= 1_000_000; i++ {
			d = p.Sample(testTrigger-5, sampleDT)
			check("cool", i, d)
			if d == (Decision{}) {
				return i
			}
		}
		t.Fatalf("N=%d: never returned to idle", n)
		return 0
	}
	short, long := recovery(100), recovery(10_000)
	if short != long {
		t.Errorf("samples back to idle: %d after 100 stuck samples, %d after 10000 (integral windup)", short, long)
	}
}

func TestPIHybValidation(t *testing.T) {
	l := binaryLadder(t)
	if _, err := PIHyb(testTrigger, DefaultFGGain, 0, l); err == nil {
		t.Error("accepted zero crossover")
	}
	if _, err := PIHyb(testTrigger, 0, 0.3, l); err == nil {
		t.Error("accepted zero gain")
	}
	if _, err := PIHyb(testTrigger, DefaultFGGain, 0.3, nil); err == nil {
		t.Error("accepted nil ladder")
	}
}

func TestHybTwoThresholds(t *testing.T) {
	const delta = 0.4
	p, err := Hyb(testTrigger, delta, 1.0/3, binaryLadder(t))
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Sample(testTrigger-0.1, sampleDT); d != (Decision{}) {
		t.Errorf("below trigger: %+v", d)
	}
	d := p.Sample(testTrigger+0.1, sampleDT)
	if d.GateFrac != 1.0/3 || d.Level != 0 {
		t.Errorf("between thresholds: %+v, want gating only", d)
	}
	d = p.Sample(testTrigger+delta+0.1, sampleDT)
	if d.Level != 1 || d.GateFrac != 0 {
		t.Errorf("above second threshold: %+v, want DVS only", d)
	}
	// DVS latches: dropping back into the band keeps the low voltage…
	d = p.Sample(testTrigger+0.1, sampleDT)
	if d.Level != 1 {
		t.Errorf("inside band after DVS engaged: %+v, want DVS latched", d)
	}
	// …and only a reading below the trigger releases it.
	if d := p.Sample(testTrigger-1, sampleDT); d != (Decision{}) {
		t.Errorf("cool again: %+v", d)
	}
	// Re-entering the band after release gates without DVS.
	d = p.Sample(testTrigger+0.1, sampleDT)
	if d.GateFrac != 1.0/3 || d.Level != 0 {
		t.Errorf("band after release: %+v, want gating only", d)
	}
}

func TestHybValidation(t *testing.T) {
	l := binaryLadder(t)
	if _, err := Hyb(testTrigger, 0, 0.3, l); err == nil {
		t.Error("accepted zero delta")
	}
	if _, err := Hyb(testTrigger, 0.4, 0, l); err == nil {
		t.Error("accepted zero gate")
	}
	if _, err := Hyb(testTrigger, 0.4, 0.3, nil); err == nil {
		t.Error("accepted nil ladder")
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	ladder := binaryLadder(t)
	mk := func() []Policy {
		fg, _ := FetchGating(testTrigger, DefaultFGGain, 0.5)
		ph, _ := PIHyb(testTrigger, DefaultFGGain, 1.0/3, ladder)
		l5, _ := dvfs.NewLadder(dvfs.Default130nm(), 5, 0.85)
		dp, _ := DVSPI(testTrigger, l5)
		return []Policy{fg, ph, dp}
	}
	for _, p := range mk() {
		for i := 0; i < 500; i++ {
			p.Sample(testTrigger+3, sampleDT)
		}
		p.Reset()
		d := p.Sample(testTrigger-5, sampleDT)
		if d.GateFrac != 0 || d.Level != 0 || d.ClockStop {
			t.Errorf("%s: state after Reset: %+v", p.Name(), d)
		}
	}
}

func TestPolicyNamesDistinct(t *testing.T) {
	ladder := binaryLadder(t)
	fg, _ := FetchGating(testTrigger, DefaultFGGain, 0.5)
	ff, _ := FixedFG(testTrigger, 0.33)
	db, _ := DVSBinary(testTrigger, ladder)
	ph, _ := PIHyb(testTrigger, DefaultFGGain, 1.0/3, ladder)
	hy, _ := Hyb(testTrigger, 0.4, 1.0/3, ladder)
	names := map[string]bool{}
	for _, p := range []Policy{None(), fg, ff, db, ph, hy, ClockGating(testTrigger)} {
		if names[p.Name()] {
			t.Errorf("duplicate policy name %q", p.Name())
		}
		names[p.Name()] = true
	}
}

func TestDVSPIResidencyLimitsSwitchRate(t *testing.T) {
	// Readings dithering across a setting boundary must not thrash the
	// voltage: the residency rule bounds up-switches to one per window.
	l, err := dvfs.NewLadder(dvfs.Default130nm(), 10, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DVSPI(testTrigger, l)
	if err != nil {
		t.Fatal(err)
	}
	// Wind the controller into the middle of the ladder.
	for i := 0; i < 200; i++ {
		p.Sample(testTrigger+1.5, sampleDT)
	}
	prev := p.Sample(testTrigger+1.5, sampleDT).Level
	changes := 0
	const samples = 2000
	for i := 0; i < samples; i++ {
		r := testTrigger + 0.4
		if i%2 == 0 {
			r = testTrigger - 0.4 // dither across the trigger
		}
		lvl := p.Sample(r, sampleDT).Level
		if lvl != prev {
			changes++
			prev = lvl
		}
	}
	// Without rate limiting this would approach one change per sample; the
	// residency rule caps it at one raise (plus its compulsory re-lower)
	// per window.
	if limit := 2*samples/dvsPIMinResidency + 10; changes > limit {
		t.Errorf("%d setting changes in %d dithered samples, want ≤ %d", changes, samples, limit)
	}
	if changes == 0 {
		t.Error("controller froze entirely under dither")
	}
}
