// Package bpred implements the front-end branch predictor used by the CPU
// model: a 21264-style tournament predictor combining a local (bimodal)
// component and a global-history (gshare) component through a chooser table
// of 2-bit counters. Fetch gating gates predictor lookups along with
// I-cache accesses (§4.1: "This entails gating both the I-cache accesses
// and branch/target predictions"), so the predictor exposes an access
// counter for the power model.
package bpred

import (
	"fmt"
	"slices"
)

// Config sizes the predictor tables. All sizes must be powers of two.
type Config struct {
	LocalEntries   int // bimodal table entries
	GlobalEntries  int // gshare table entries
	ChooserEntries int // chooser table entries
	HistoryBits    int // global history length
}

// DefaultConfig returns a 21264-flavoured tournament predictor (scaled to
// keep the model light: 4K entries per component).
func DefaultConfig() Config {
	return Config{
		LocalEntries:   4096,
		GlobalEntries:  4096,
		ChooserEntries: 4096,
		HistoryBits:    12,
	}
}

func (c Config) validate() error {
	for _, e := range []struct {
		name string
		v    int
	}{
		{"LocalEntries", c.LocalEntries},
		{"GlobalEntries", c.GlobalEntries},
		{"ChooserEntries", c.ChooserEntries},
	} {
		if e.v <= 0 || e.v&(e.v-1) != 0 {
			return fmt.Errorf("bpred: %s = %d must be a positive power of two", e.name, e.v)
		}
	}
	if c.HistoryBits <= 0 || c.HistoryBits > 30 {
		return fmt.Errorf("bpred: HistoryBits = %d out of range (0,30]", c.HistoryBits)
	}
	return nil
}

// Predictor is a tournament branch predictor. The zero value is not usable;
// construct with New.
type Predictor struct {
	cfg     Config
	local   []uint8 // 2-bit saturating counters
	global  []uint8
	chooser []uint8 // 2-bit: ≥2 selects global
	history uint32

	// Index masks (= entries-1). The table sizes are validated powers of
	// two, so idx & mask equals idx % entries; the masks keep the modulo
	// off the per-branch hot path.
	localMask, globalMask, chooserMask uint64
	historyMask                        uint32

	accesses   uint64
	mispredict uint64
	branches   uint64
}

// New builds a predictor with all counters weakly taken.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Predictor{
		cfg:     cfg,
		local:   make([]uint8, cfg.LocalEntries),
		global:  make([]uint8, cfg.GlobalEntries),
		chooser: make([]uint8, cfg.ChooserEntries),

		localMask:   uint64(cfg.LocalEntries - 1),
		globalMask:  uint64(cfg.GlobalEntries - 1),
		chooserMask: uint64(cfg.ChooserEntries - 1),
		historyMask: 1<<uint(cfg.HistoryBits) - 1,
	}
	for i := range p.local {
		p.local[i] = 2
	}
	for i := range p.global {
		p.global[i] = 2
	}
	for i := range p.chooser {
		p.chooser[i] = 1 // weakly prefer local, as the 21264 does on reset
	}
	return p, nil
}

// Clone returns an independent copy: the same tables, history and
// counters.
func (p *Predictor) Clone() *Predictor {
	cp := *p
	cp.local = slices.Clone(p.local)
	cp.global = slices.Clone(p.global)
	cp.chooser = slices.Clone(p.chooser)
	return &cp
}

func taken(c uint8) bool { return c >= 2 }

func bump(c uint8, t bool) uint8 {
	if t {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Predict returns the predicted direction for the branch at pc.
func (p *Predictor) Predict(pc uint64) bool {
	p.accesses++
	idx := pc >> 2 // instructions are 4-byte aligned; drop the dead bits
	li := idx & p.localMask
	gi := (idx ^ uint64(p.history)) & p.globalMask
	ci := idx & p.chooserMask
	if taken(p.chooser[ci]) {
		return taken(p.global[gi])
	}
	return taken(p.local[li])
}

// Update trains the predictor with the branch's actual direction and
// reports whether the prediction it would have made was correct. Predict
// and Update are separated because in the pipeline the outcome arrives at
// resolution, many cycles after the lookup.
func (p *Predictor) Update(pc uint64, outcome bool) bool {
	idx := pc >> 2
	li := idx & p.localMask
	gi := (idx ^ uint64(p.history)) & p.globalMask
	ci := idx & p.chooserMask

	lPred := taken(p.local[li])
	gPred := taken(p.global[gi])
	var used bool
	if taken(p.chooser[ci]) {
		used = gPred
	} else {
		used = lPred
	}

	// Chooser trains toward whichever component was right (only when they
	// disagree).
	if lPred != gPred {
		p.chooser[ci] = bump(p.chooser[ci], gPred == outcome)
	}
	p.local[li] = bump(p.local[li], outcome)
	p.global[gi] = bump(p.global[gi], outcome)
	p.history = (p.history<<1 | b2u(outcome)) & p.historyMask

	p.branches++
	if used != outcome {
		p.mispredict++
		return false
	}
	return true
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Accesses returns the number of Predict calls since construction or the
// last ResetCounters; the power model charges predictor energy per access.
func (p *Predictor) Accesses() uint64 { return p.accesses }

// Stats returns resolved branches and mispredictions.
func (p *Predictor) Stats() (branches, mispredicts uint64) {
	return p.branches, p.mispredict
}

// MispredictRate returns mispredictions per resolved branch (0 if none).
func (p *Predictor) MispredictRate() float64 {
	if p.branches == 0 {
		return 0
	}
	return float64(p.mispredict) / float64(p.branches)
}

// ResetCounters clears the access/misprediction statistics without
// disturbing the learned state.
func (p *Predictor) ResetCounters() {
	p.accesses = 0
	p.mispredict = 0
	p.branches = 0
}
