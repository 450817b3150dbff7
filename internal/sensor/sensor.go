// Package sensor models the on-chip thermal sensors the DTM hardware reads
// (§3): one sensor per architectural block, placed mid-block, with an
// effective precision of ±1 °C after averaging and a fixed per-sensor
// offset of up to ±2 °C, sampled at 10 kHz. Following Brooks and Martonosi,
// readings feed comparator circuits directly — no interrupts — so the DTM
// policies in this repository consume raw digitized readings.
package sensor

import (
	"fmt"
	"math"
)

// Config describes the sensor characteristics.
type Config struct {
	// Precision is the effective resolution after averaging: readings are
	// quantized to this step, so a reading can differ from the (offset)
	// truth by up to half of it. Averaging many raw samples makes the
	// residual error deterministic rather than white — per-sample random
	// noise at 10 kHz would thrash every comparator-based DTM policy,
	// which is not how real digitized sensor paths behave.
	Precision float64
	// Noise adds optional uniform per-sample noise of this half-width on
	// top of quantization, for sensitivity studies. Zero (the default)
	// models the averaged path.
	Noise      float64
	MaxOffset  float64 // maximum magnitude of the fixed per-sensor offset, °C
	SampleRate float64 // samples per second
	Seed       uint64  // seed for offset draw and noise stream
}

// DefaultConfig returns the paper's sensor model: ±1 °C effective
// precision, ≤2 °C offset, 10 kHz sampling, with a small per-sample noise
// term (±0.4 °C) under the quantizer — the LSB dither every real analog
// front-end exhibits. The dither matters for DTM dynamics: it lets
// comparator-driven policies duty-cycle their response near a threshold
// instead of latching across the quantization step, and it is what makes
// frequent DVS setting changes (and their stall cost) an issue worth
// engineering around (§4.1's low-pass filter, §5.2's switch-minimizing
// hybrids). The default seed draws a moderate negative offset (≈ −0.6 °C)
// for the hotspot block's sensor — the conservative case the paper's
// design margin exists for (a sensor that reads low delays the DTM
// response).
func DefaultConfig() Config {
	return Config{Precision: 1, Noise: 0.4, MaxOffset: 2, SampleRate: 10e3, Seed: 35}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Precision < 0 || c.MaxOffset < 0 || c.Noise < 0 {
		return fmt.Errorf("sensor: negative precision/noise/offset in %+v", c)
	}
	if !(c.SampleRate > 0) {
		return fmt.Errorf("sensor: sample rate %v must be positive", c.SampleRate)
	}
	return nil
}

// SamplePeriod returns seconds between sensor reads.
func (c Config) SamplePeriod() float64 { return 1 / c.SampleRate }

// WorstCaseError returns the design margin DTM must budget for: the largest
// amount by which a reading can be below the true temperature (half the
// quantization step, plus any per-sample noise, plus the fixed offset).
// With the defaults this is 2.5 °C against the paper's 3 °C budget, which
// with the 85 °C emergency threshold keeps the 82 °C practical limit
// conservative.
func (c Config) WorstCaseError() float64 { return c.Precision/2 + c.Noise + c.MaxOffset }

// Bank is a set of sensors with fixed offsets and per-read noise.
type Bank struct {
	cfg     Config
	offsets []float64
	rng     uint64

	stuck map[int]float64 // failure injection: sensor index → pinned reading
}

// NewBank creates n sensors. Offsets are drawn uniformly in
// [-MaxOffset, +MaxOffset] once and stay fixed, modeling process variation
// in the sensor circuits.
func NewBank(n int, cfg Config) (*Bank, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("sensor: bank size %d must be positive", n)
	}
	b := &Bank{cfg: cfg, offsets: make([]float64, n), rng: cfg.Seed}
	if b.rng == 0 {
		b.rng = 0x9E3779B97F4A7C15
	}
	for i := range b.offsets {
		b.offsets[i] = (2*b.uniform() - 1) * cfg.MaxOffset
	}
	return b, nil
}

func (b *Bank) uniform() float64 {
	s := b.rng
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	b.rng = s
	return float64((s*0x2545F4914F6CDD1D)>>11) / (1 << 53)
}

// Config returns the bank's configuration.
func (b *Bank) Config() Config { return b.cfg }

// Size returns the number of sensors.
func (b *Bank) Size() int { return len(b.offsets) }

// Offset returns sensor i's fixed offset.
func (b *Bank) Offset(i int) float64 { return b.offsets[i] }

// SetStuck pins sensor i's reading to a fixed value — failure injection
// for robustness studies. The paper's §3 notes that a sensor not
// co-located with the hotspot (or, worse, a failed one) observes a cooler
// temperature than the spot DTM must regulate; this models the extreme
// case. Pass math.NaN() to clear the fault.
func (b *Bank) SetStuck(i int, value float64) error {
	if i < 0 || i >= len(b.offsets) {
		return fmt.Errorf("sensor: index %d out of range [0,%d)", i, len(b.offsets))
	}
	if b.stuck == nil {
		b.stuck = make(map[int]float64)
	}
	if math.IsNaN(value) {
		delete(b.stuck, i)
	} else {
		b.stuck[i] = value
	}
	return nil
}

// Read fills dst with one sample per sensor: the true temperature plus the
// fixed offset, quantized to the Precision step, plus optional uniform
// noise within ±Noise. dst is allocated if nil or short, and returned.
func (b *Bank) Read(dst, truth []float64) ([]float64, error) {
	if len(truth) != len(b.offsets) {
		return nil, fmt.Errorf("sensor: %d temperatures for %d sensors", len(truth), len(b.offsets))
	}
	if cap(dst) < len(truth) {
		dst = make([]float64, len(truth))
	}
	dst = dst[:len(truth)]
	for i, t := range truth {
		if pinned, ok := b.stuck[i]; ok {
			dst[i] = pinned
			continue
		}
		r := t + b.offsets[i]
		if b.cfg.Noise > 0 {
			r += (2*b.uniform() - 1) * b.cfg.Noise
		}
		if b.cfg.Precision > 0 {
			r = math.Round(r/b.cfg.Precision) * b.cfg.Precision
		}
		dst[i] = r
	}
	return dst, nil
}

// Max returns the largest value in a reading — what a comparator bank
// wired to every sensor effectively computes.
func Max(readings []float64) float64 {
	m := readings[0]
	for _, v := range readings[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
