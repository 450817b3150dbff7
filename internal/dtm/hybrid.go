package dtm

import (
	"fmt"

	"hybriddtm/internal/control"
	"hybriddtm/internal/dvfs"
)

// --- PI-Hyb -------------------------------------------------------------

type piHyb struct {
	trigger   float64
	ctl       *control.Integrator
	crossGate float64
	low       int
	dvsOn     bool
}

// PIHyb returns the feedback-controlled hybrid policy (§4.2): an integral
// controller adjusts the fetch-gating duty cycle while thermal stress is
// mild, but the duty is capped at the ILP/DVS crossover point. If the
// controller saturates at the crossover and the chip is still above the
// trigger, the policy switches to the ladder's low-voltage setting; once
// the reading falls back below the trigger it returns to fetch-gating
// control. The crossover is where fetch gating stops being hidden by ILP —
// well before its cooling capability is exhausted, which is what separates
// hybrid DTM from fallback schemes like DEETM (§2).
func PIHyb(trigger, ki, crossGate float64, ladder *dvfs.Ladder) (Policy, error) {
	if ladder == nil {
		return nil, fmt.Errorf("dtm: nil ladder")
	}
	if crossGate <= 0 || crossGate >= 1 {
		return nil, fmt.Errorf("dtm: crossover gate %v outside (0,1)", crossGate)
	}
	if ki <= 0 {
		return nil, fmt.Errorf("dtm: non-positive integral gain %v", ki)
	}
	ctl, err := control.NewIntegrator(ki, 0, crossGate)
	if err != nil {
		return nil, err
	}
	return &piHyb{
		trigger:   trigger,
		ctl:       ctl,
		crossGate: crossGate,
		low:       ladder.NumPoints() - 1,
	}, nil
}

func (p *piHyb) Name() string { return "pi-hyb" }

func (p *piHyb) Sample(maxReading, dt float64) Decision {
	err := maxReading - p.trigger
	gate := p.ctl.Update(err, dt)
	if p.dvsOn {
		// Stay at low voltage until the reading drops below the trigger;
		// fetch gating is released meanwhile (DVS's cubic reduction is
		// already stronger than anything gating could add).
		if err < 0 {
			p.dvsOn = false
		} else {
			return Decision{Level: p.low}
		}
	}
	if gate >= p.crossGate && err >= 0 {
		// The ILP technique is saturated at the crossover and the chip is
		// still too hot: beyond this point gating's slowdown rises linearly
		// while DVS's cubic advantage wins. Engage DVS.
		p.dvsOn = true
		return Decision{Level: p.low}
	}
	return Decision{GateFrac: gate}
}

func (p *piHyb) Reset() {
	p.ctl.Reset()
	p.dvsOn = false
}

// --- Hyb ----------------------------------------------------------------

type hyb struct {
	trigger float64
	dvsAt   float64
	gate    float64
	low     int
	dvsOn   bool
}

// Hyb returns the feedback-free hybrid policy (§4.2): one fixed
// fetch-gating level between the trigger threshold and a second, slightly
// higher threshold, and binary DVS above that. Implementation is two
// comparators per sensor feeding a set/reset latch — no controller at all —
// which eliminates tuning risk and oscillation while sacrificing
// negligible performance versus PI-Hyb (§5.2). delta is the gap between
// the two thresholds in °C.
//
// The DVS stage latches: it engages when the reading reaches the upper
// threshold and releases only when the reading falls below the trigger.
// Without the latch, every cooling excursion through the narrow band
// between the thresholds would bounce the voltage — and each bounce costs
// a switch stall, exactly the overhead the hybrid exists to minimize.
func Hyb(trigger, delta, gate float64, ladder *dvfs.Ladder) (Policy, error) {
	if ladder == nil {
		return nil, fmt.Errorf("dtm: nil ladder")
	}
	if gate <= 0 || gate >= 1 {
		return nil, fmt.Errorf("dtm: fixed gate %v outside (0,1)", gate)
	}
	if delta <= 0 {
		return nil, fmt.Errorf("dtm: threshold gap %v must be positive", delta)
	}
	return &hyb{trigger: trigger, dvsAt: trigger + delta, gate: gate, low: ladder.NumPoints() - 1}, nil
}

func (p *hyb) Name() string { return "hyb" }

func (p *hyb) Sample(maxReading, _ float64) Decision {
	switch {
	case maxReading >= p.dvsAt:
		p.dvsOn = true
	case maxReading < p.trigger:
		p.dvsOn = false
	}
	switch {
	case p.dvsOn:
		return Decision{Level: p.low}
	case maxReading >= p.trigger:
		return Decision{GateFrac: p.gate}
	default:
		return Decision{}
	}
}

func (p *hyb) Reset() { p.dvsOn = false }
