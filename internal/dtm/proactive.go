package dtm

import (
	"fmt"

	"hybriddtm/internal/control"
)

type proactive struct {
	inner   Policy
	horizon float64
	slope   *control.LowPass

	last  float64
	valid bool
}

// Proactive wraps any policy with temperature-trend prediction, the §6
// future-work direction the paper attributes to Srinivasan and Adve:
// instead of reacting to the current reading, the wrapped policy sees the
// reading extrapolated `horizon` seconds ahead along a low-pass-filtered
// slope estimate. A chip heating toward the trigger therefore responds
// early — trading a little extra throttling for reduced peak temperature
// and a wider margin under the emergency threshold.
//
// The slope filter matters: raw sample-to-sample differences of a
// quantized sensor are mostly quantization steps; smoothing recovers the
// underlying trend.
func Proactive(inner Policy, horizon float64) (Policy, error) {
	if inner == nil {
		return nil, fmt.Errorf("dtm: nil inner policy")
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("dtm: non-positive prediction horizon %v", horizon)
	}
	lp, err := control.NewLowPass(0.05)
	if err != nil {
		return nil, err
	}
	return &proactive{inner: inner, horizon: horizon, slope: lp}, nil
}

func (p *proactive) Name() string { return "proactive-" + p.inner.Name() }

func (p *proactive) Sample(maxReading, dt float64) Decision {
	predicted := maxReading
	if p.valid && dt > 0 {
		s := p.slope.Update((maxReading - p.last) / dt)
		if s > 0 {
			// Only project heating trends: predicting a cooler future must
			// never delay a response the current reading already demands.
			predicted = maxReading + s*p.horizon
		}
	} else {
		p.slope.Update(0)
	}
	p.last = maxReading
	p.valid = true
	return p.inner.Sample(predicted, dt)
}

func (p *proactive) Reset() {
	p.inner.Reset()
	p.slope.Reset()
	p.valid = false
}
