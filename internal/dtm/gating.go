package dtm

import (
	"fmt"

	"hybriddtm/internal/control"
)

// --- Feedback-controlled fetch gating ----------------------------------

type fetchGating struct {
	trigger float64
	ctl     *control.Integrator
	maxGate float64
}

// FetchGating returns the stand-alone feedback-controlled fetch-gating
// policy: an integral controller raises the gated fraction while the
// hottest sensor reads above the trigger and unwinds it below (§4.1). The
// controller hardware is minimal — a few registers, an adder and a
// multiplier. maxGate bounds the duty cycle; it must be large enough to
// eliminate all violations on the workload (the paper needs up to two of
// every three fetch cycles gated for stand-alone FG).
func FetchGating(trigger, ki, maxGate float64) (Policy, error) {
	if maxGate <= 0 || maxGate >= 1 {
		return nil, fmt.Errorf("dtm: max gate %v outside (0,1)", maxGate)
	}
	if ki <= 0 {
		return nil, fmt.Errorf("dtm: non-positive integral gain %v", ki)
	}
	ctl, err := control.NewIntegrator(ki, 0, maxGate)
	if err != nil {
		return nil, err
	}
	return &fetchGating{trigger: trigger, ctl: ctl, maxGate: maxGate}, nil
}

// DefaultFGGain is the integral gain (gated fraction per °C·second) used
// throughout the experiments: a sustained 1 °C excess traverses the full
// duty range in about a millisecond, fast enough to catch the silicon
// rebound after the trigger fires (the silicon heats several °C/ms when
// unthrottled against a hot package). The paper confirms controller settings by exhaustive search,
// and our sweep bench (BenchmarkAblationFGGain) shows a broad flat optimum
// around this value.
const DefaultFGGain = 600.0

func (p *fetchGating) Name() string { return "fg" }

func (p *fetchGating) Sample(maxReading, dt float64) Decision {
	return Decision{GateFrac: p.ctl.Update(maxReading-p.trigger, dt)}
}

func (p *fetchGating) Reset() { p.ctl.Reset() }

// --- Fixed fetch gating -------------------------------------------------

type fixedFG struct {
	trigger float64
	gate    float64
}

// FixedFG returns fetch gating at one fixed duty whenever the hottest
// sensor reads at or above the trigger — no feedback control. Used to show
// why stand-alone FG needs PI control (§5.2: a single duty cycle would have
// to be too harsh) and as the ILP component of the Hyb policy.
func FixedFG(trigger, gate float64) (Policy, error) {
	if gate <= 0 || gate >= 1 {
		return nil, fmt.Errorf("dtm: fixed gate %v outside (0,1)", gate)
	}
	return &fixedFG{trigger: trigger, gate: gate}, nil
}

func (p *fixedFG) Name() string { return fmt.Sprintf("fg-fixed%.2f", p.gate) }

func (p *fixedFG) Sample(maxReading, _ float64) Decision {
	if maxReading >= p.trigger {
		return Decision{GateFrac: p.gate}
	}
	return Decision{}
}

func (p *fixedFG) Reset() {}

// --- Global clock gating ------------------------------------------------

type clockGating struct {
	trigger float64
}

// ClockGating returns Pentium-4-style global clock gating: the entire
// processor clock stops while the hottest sensor reads at or above the
// trigger (§2). It obtains extra power reduction from the idle clock tree
// but cannot exploit ILP, and rapid stop/start raises voltage-stability
// concerns the paper notes (§4.1); it is included as a reference point.
func ClockGating(trigger float64) Policy {
	return &clockGating{trigger: trigger}
}

func (p *clockGating) Name() string { return "clockgate" }

func (p *clockGating) Sample(maxReading, _ float64) Decision {
	if maxReading >= p.trigger {
		return Decision{ClockStop: true}
	}
	return Decision{}
}

func (p *clockGating) Reset() {}
