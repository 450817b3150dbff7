// Package dtm implements the dynamic thermal management policies the paper
// evaluates (§4): dynamic voltage scaling (binary comparator-driven or
// PI-controlled over a multi-step ladder, with a low-pass filter on setting
// increases), feedback-controlled fetch gating, fixed fetch gating, global
// clock gating, and the paper's contributions — the hybrid policies PI-Hyb
// (feedback-controlled fetch gating up to the ILP/DVS crossover duty cycle,
// then DVS) and Hyb (a single fixed fetch-gating level plus a second
// comparator threshold that engages binary DVS, eliminating feedback
// control entirely, §4.2).
//
// A policy is a pure decision function sampled at the sensor rate: it sees
// the hottest sensor reading (what a comparator bank computes) and requests
// a fetch-gating fraction, a DVS ladder level and/or a global clock stop.
// Switching costs (the 10 µs DVS stall or delay) are enforced by the
// simulator, not the policy, exactly as the hardware imposes them on the
// control loop.
package dtm

import (
	"fmt"

	"hybriddtm/internal/control"
	"hybriddtm/internal/dvfs"
)

// Decision is the actuator state a policy requests for the next sample
// period.
type Decision struct {
	GateFrac  float64 // fraction of cycles with fetch gated, [0, 1)
	Level     int     // DVS ladder index (0 = nominal voltage/frequency)
	ClockStop bool    // stop the global clock (clock-gating policy)

	// Per-domain issue gating (local toggling); zero for every other
	// policy.
	IntGate, FPGate, MemGate float64
}

// Policy is a DTM decision function. Sample is called at the sensor
// sampling rate with the maximum sensor reading and the sample period in
// seconds. Policies are deterministic state machines; Reset returns them to
// their power-on state.
type Policy interface {
	Name() string
	Sample(maxReading, dt float64) Decision
	Reset()
}

// --- No DTM -----------------------------------------------------------

type nonePolicy struct{}

// None returns the do-nothing policy, the performance baseline.
func None() Policy { return nonePolicy{} }

// IsNone reports whether p is the do-nothing policy. The simulator uses it
// to decide whether the pre-run thermal state should reflect a managed
// chip (held at the trigger) or a completely unmanaged one.
func IsNone(p Policy) bool {
	_, ok := p.(nonePolicy)
	return ok
}

func (nonePolicy) Name() string { return "none" }

func (nonePolicy) Sample(_, _ float64) Decision { return Decision{} }
func (nonePolicy) Reset()                       {}

// --- Binary DVS -------------------------------------------------------

type dvsBinary struct {
	trigger float64
	low     int
}

// DVSBinary returns the two-setting DVS policy: a comparator on the hottest
// sensor engages the ladder's lowest voltage whenever the reading is at or
// above the trigger (§4.1: "if the temperature dictates that DVS must be
// engaged, the low voltage is used; this type of response simply entails
// comparators on the sensor readings").
func DVSBinary(trigger float64, ladder *dvfs.Ladder) (Policy, error) {
	if ladder == nil {
		return nil, fmt.Errorf("dtm: nil ladder")
	}
	return &dvsBinary{trigger: trigger, low: ladder.NumPoints() - 1}, nil
}

func (p *dvsBinary) Name() string { return "dvs" }

func (p *dvsBinary) Sample(maxReading, _ float64) Decision {
	if maxReading >= p.trigger {
		return Decision{Level: p.low}
	}
	return Decision{}
}

func (p *dvsBinary) Reset() {}

// --- PI-controlled multi-step DVS --------------------------------------

type dvsPI struct {
	trigger float64
	ladder  *dvfs.Ladder
	pi      *control.PI
	lp      *control.LowPass
	level   int
	// sinceSwitch counts samples since the last setting change; raising
	// the voltage requires a minimum residency so boundary fluctuation
	// does not thrash settings (each change costs a stall, §4.1).
	sinceSwitch int
}

// dvsPIMinResidency is the number of samples (2 ms at 10 kHz) a setting
// must be held before the controller may raise the voltage again.
// Lowering is compulsory and never waits.
const dvsPIMinResidency = 20

// DVSPI returns the feedback-controlled DVS policy for ladders with more
// than two settings: a PI controller chooses the highest frequency that
// regulates temperature at the trigger; lowering the voltage is compulsory
// and immediate, while raising it goes through a low-pass filter so small
// temperature fluctuations near a setting boundary do not thrash the
// voltage (§4.1).
func DVSPI(trigger float64, ladder *dvfs.Ladder) (Policy, error) {
	if ladder == nil {
		return nil, fmt.Errorf("dtm: nil ladder")
	}
	fLow := ladder.Lowest().F / ladder.Nominal().F
	// The PI output is the frequency *reduction* below nominal in
	// normalized units, clamped to the ladder's range. Gains are in
	// normalized frequency per °C (Kp) and per °C·s (Ki): a sustained
	// degree of excess unwinds most of the range within a millisecond.
	pi, err := control.NewPI(0.1, 150, 0, 1-fLow)
	if err != nil {
		return nil, err
	}
	lp, err := control.NewLowPass(0.05)
	if err != nil {
		return nil, err
	}
	return &dvsPI{trigger: trigger, ladder: ladder, pi: pi, lp: lp}, nil
}

func (p *dvsPI) Name() string { return fmt.Sprintf("dvs-pi%d", p.ladder.NumPoints()) }

func (p *dvsPI) Sample(maxReading, dt float64) Decision {
	// Positive error = too hot = more reduction.
	reduction := p.pi.Update(maxReading-p.trigger, dt)
	targetF := (1 - reduction) * p.ladder.Nominal().F
	// Lowering the voltage is compulsory (safety); raising it goes through
	// the low-pass filter and a minimum residency so boundary oscillation
	// does not thrash settings (every change costs the switch stall).
	filteredF := p.lp.Update(targetF)
	p.sinceSwitch++
	candidate := p.ladder.QuantizeFrequency(targetF)
	if candidate > p.level {
		p.level = candidate // slower setting: immediate
		p.sinceSwitch = 0
	} else if up := p.ladder.QuantizeFrequency(filteredF); up < p.level && p.sinceSwitch >= dvsPIMinResidency {
		p.level = up // faster setting: filtered target and residency agree
		p.sinceSwitch = 0
	}
	return Decision{Level: p.level}
}

func (p *dvsPI) Reset() {
	p.pi.Reset()
	p.lp.Reset()
	p.level = 0
	p.sinceSwitch = 0
}
