package experiments

import (
	"testing"
)

// The map-range reductions in studies.go claim to be iteration-order
// independent. Go randomizes map iteration order on every range, so
// hammering each reduction and demanding one stable answer is a direct
// regression test of that claim: if someone later threads an
// order-dependent accumulation through these loops, this test flakes
// immediately.
func TestMapReductionsAreOrderIndependent(t *testing.T) {
	step := StepSizeResult{MeanSlowdown: map[int]float64{
		2: 1.071, 3: 1.0525, 5: 1.0524, 8: 1.0719, 13: 1.0391,
	}}
	floor := VoltageFloorResult{ViolationFree: map[float64]bool{
		0.50: true, 0.65: true, 0.85: true, 0.90: false, 0.95: false,
	}}
	wantSpread := step.MaxSpread()
	wantFloor := floor.Floor()
	if wantFloor != 0.85 {
		t.Fatalf("Floor() = %v, want 0.85", wantFloor)
	}
	for i := 0; i < 200; i++ {
		if got := step.MaxSpread(); got != wantSpread {
			t.Fatalf("MaxSpread() unstable across map iterations: %v then %v", wantSpread, got)
		}
		if got := floor.Floor(); got != wantFloor {
			t.Fatalf("Floor() unstable across map iterations: %v then %v", wantFloor, got)
		}
	}
}
