package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/stats"
)

// StepSizeLadders are the DVS step counts the paper compares: binary,
// three, five, ten and (effectively) continuous (§4.1).
var StepSizeLadders = []int{2, 3, 5, 10, dvfs.ContinuousSteps}

// StepSizeResult reports the §4.1 step-size study: mean DVS slowdown per
// ladder size and variant. The paper finds all step counts within 0.4%
// (stall) / 0.01% (ideal) of each other, motivating binary DVS.
type StepSizeResult struct {
	Stall bool
	// MeanSlowdown per ladder size.
	MeanSlowdown map[int]float64
	Violations   map[int]bool
}

// MaxSpread returns the largest pairwise difference in mean slowdown.
func (s StepSizeResult) MaxSpread() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	// min/max reduction is iteration-order independent (TestMapReductionsAreOrderIndependent)
	for _, v := range s.MeanSlowdown {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}

// StepSizeStudy declares the §4.1 step-size comparison for one DVS
// variant: one row per ladder. Binary DVS runs on the default (binary)
// ladder; every other row's dvs-pi installs its own ladder into the row's
// config, so the simulator exposes the operating points the policy
// requests.
func (p *Plan) StepSizeStudy(stall bool) *StepSizeResult {
	cfg := p.r.opts.Config
	cfg.DVSStall = stall
	for _, n := range StepSizeLadders {
		scheme := "dvs-pi"
		if n == 2 {
			scheme = "dvs"
		}
		p.scheme(cfg, scheme, 0, n, fmt.Sprintf("DVS-%dstep", n))
	}
	out := &StepSizeResult{
		Stall:        stall,
		MeanSlowdown: make(map[int]float64),
		Violations:   make(map[int]bool),
	}
	p.fold(func(_ context.Context, rows [][]Measurement) error {
		for i, n := range StepSizeLadders {
			out.MeanSlowdown[n] = stats.Mean(Slowdowns(rows[i]))
			out.Violations[n] = AnyViolation(rows[i])
		}
		return nil
	})
	return out
}

// String renders the study.
func (s StepSizeResult) String() string {
	var b strings.Builder
	mode := "DVS-stall"
	if !s.Stall {
		mode = "DVS-ideal"
	}
	fmt.Fprintf(&b, "Step-size study (%s): mean slowdown per ladder size\n", mode)
	for _, n := range StepSizeLadders {
		v := ""
		if s.Violations[n] {
			v = "VIOLATED"
		}
		label := fmt.Sprintf("%d steps", n)
		if n == dvfs.ContinuousSteps {
			label = "continuous"
		}
		fmt.Fprintf(&b, "%12s  %8.4f  %s\n", label, s.MeanSlowdown[n], v)
	}
	fmt.Fprintf(&b, "max spread: %.4f (%.2f%%)\n", s.MaxSpread(), 100*s.MaxSpread())
	return b.String()
}

// VoltageFloorFracs are the candidate low-voltage settings (fractions of
// nominal) swept to find the highest one that still eliminates violations.
var VoltageFloorFracs = []float64{0.95, 0.90, 0.85, 0.80}

// VoltageFloorResult reports the §4.1 voltage-floor search.
type VoltageFloorResult struct {
	// ViolationFree per voltage fraction.
	ViolationFree map[float64]bool
	MeanSlowdown  map[float64]float64
}

// Floor returns the largest violation-free fraction (the paper finds 85%).
func (v VoltageFloorResult) Floor() float64 {
	best := 0.0
	// max reduction is iteration-order independent (TestMapReductionsAreOrderIndependent)
	for frac, ok := range v.ViolationFree {
		if ok && frac > best {
			best = frac
		}
	}
	return best
}

// VoltageFloor declares the low-voltage search with binary DVS-stall: one
// row per low-voltage fraction.
func (p *Plan) VoltageFloor() *VoltageFloorResult {
	for _, frac := range VoltageFloorFracs {
		cfg := p.r.opts.Config
		cfg.DVSStall = true
		cfg.VMinFrac = frac
		p.row(cfg, DVSPolicy(cfg))
	}
	out := &VoltageFloorResult{
		ViolationFree: make(map[float64]bool),
		MeanSlowdown:  make(map[float64]float64),
	}
	p.fold(func(_ context.Context, rows [][]Measurement) error {
		for i, frac := range VoltageFloorFracs {
			out.ViolationFree[frac] = !AnyViolation(rows[i])
			out.MeanSlowdown[frac] = stats.Mean(Slowdowns(rows[i]))
		}
		return nil
	})
	return out
}

// String renders the study.
func (v VoltageFloorResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Voltage-floor search: binary DVS low setting (fraction of nominal)")
	for _, frac := range VoltageFloorFracs {
		status := "violations"
		if v.ViolationFree[frac] {
			status = "safe"
		}
		fmt.Fprintf(&b, "%6.0f%%  slowdown %8.4f  %s\n", 100*frac, v.MeanSlowdown[frac], status)
	}
	fmt.Fprintf(&b, "largest safe low voltage: %.0f%% of nominal\n", 100*v.Floor())
	return b.String()
}

// CharacteriseRow summarizes one benchmark's unmanaged thermal behaviour.
type CharacteriseRow struct {
	Benchmark        string
	IPC              float64
	AvgPower         float64
	MaxTemp          float64
	HottestBlock     string
	FracAboveTrigger float64
	Violates         bool
}

// Characterise declares the §3 benchmark characterization: the nine
// hottest SPEC programs, all spending most of their time above the trigger,
// with the integer register file the hottest unit. It adds no rows; its
// rows are the baselines, which the batch computes and caches.
func (p *Plan) Characterise() *CharacteriseRows {
	p.bases = true
	out := &CharacteriseRows{}
	p.fold(func(ctx context.Context, _ [][]Measurement) error {
		for _, b := range p.r.opts.Benchmarks {
			res, err := p.r.BaselineContext(ctx, b)
			if err != nil {
				return err
			}
			*out = append(*out, CharacteriseRow{
				Benchmark:        b.Name,
				IPC:              res.AvgIPC,
				AvgPower:         res.AvgPower,
				MaxTemp:          res.MaxTemp,
				HottestBlock:     res.HottestBlock,
				FracAboveTrigger: res.TimeAboveTrigger / res.WallTime,
				Violates:         res.Violated(),
			})
		}
		return nil
	})
	return out
}

// CharacteriseRows is the §3 characterization, one row per benchmark.
type CharacteriseRows []CharacteriseRow

// String renders the characterization table.
func (rows CharacteriseRows) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Benchmark characterization (no DTM)")
	fmt.Fprintf(&b, "%-9s %6s %8s %8s %9s %8s %s\n",
		"bench", "IPC", "power/W", "maxT/°C", "hottest", "trig%", "violates")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-9s %6.2f %8.1f %8.2f %9s %7.1f%% %v\n",
			row.Benchmark, row.IPC, row.AvgPower, row.MaxTemp,
			row.HottestBlock, 100*row.FracAboveTrigger, row.Violates)
	}
	return b.String()
}

// CrossoverInvarianceResult reports the §5.1 claim that the ILP/DVS
// crossover point is an architectural property: the best duty cycle does
// not move when the DVS low-voltage setting changes or when PI control is
// removed (Hyb vs PI-Hyb).
type CrossoverInvarianceResult struct {
	// BestDutyPerVMin maps low-voltage fraction to the best crossover duty
	// cycle found for PI-Hyb.
	BestDutyPerVMin map[float64]float64
	// BestDutyHyb is the best duty for the feedback-free Hyb at the
	// default low voltage.
	BestDutyHyb float64
}

// CrossoverDuties is the coarse grid used for the invariance search (a
// subset of the Figure 3 axis keeps the study tractable).
var CrossoverDuties = []float64{20, 5, 3, 2}

// CrossoverVMins are the low-voltage settings the invariance is checked
// over.
var CrossoverVMins = []float64{0.90, 0.85, 0.80}

// CrossoverInvariance declares the §5.1 invariance study: one PI-Hyb row
// per (vmin, duty) pair, then one feedback-free Hyb row per duty at the
// default low voltage. Rows with violations are excluded from the
// best-duty search.
func (p *Plan) CrossoverInvariance() *CrossoverInvarianceResult {
	for _, vmin := range CrossoverVMins {
		cfg := p.r.opts.Config
		cfg.DVSStall = true
		cfg.VMinFrac = vmin
		for _, duty := range CrossoverDuties {
			p.scheme(cfg, "pi-hyb", 1/duty, 0, fmt.Sprintf("PI-Hyb(d=%g,v=%g)", duty, vmin))
		}
	}
	hybCfg := p.r.opts.Config
	hybCfg.DVSStall = true
	for _, duty := range CrossoverDuties {
		p.scheme(hybCfg, "hyb", 1/duty, 0, fmt.Sprintf("Hyb(d=%g)", duty))
	}
	out := &CrossoverInvarianceResult{BestDutyPerVMin: make(map[float64]float64)}
	p.fold(func(_ context.Context, rows [][]Measurement) error {
		// bestDuty returns the duty of the violation-free row with the
		// lowest mean slowdown among one sweep's duty rows (0 if every row
		// violates).
		bestDuty := func(sweep [][]Measurement) float64 {
			var slows, duties []float64
			for i, duty := range CrossoverDuties {
				if AnyViolation(sweep[i]) {
					continue
				}
				slows = append(slows, stats.Mean(Slowdowns(sweep[i])))
				duties = append(duties, duty)
			}
			if len(slows) == 0 {
				return 0
			}
			return duties[ArgMin(slows)]
		}
		nd := len(CrossoverDuties)
		for vi, vmin := range CrossoverVMins {
			if d := bestDuty(rows[vi*nd : (vi+1)*nd]); !stats.SameFloat(d, 0) {
				out.BestDutyPerVMin[vmin] = d
			}
		}
		out.BestDutyHyb = bestDuty(rows[len(CrossoverVMins)*nd:])
		return nil
	})
	return out
}

// String renders the study.
func (c CrossoverInvarianceResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Crossover invariance (§5.1): best duty cycle per configuration")
	for _, vmin := range CrossoverVMins {
		if d, ok := c.BestDutyPerVMin[vmin]; ok {
			fmt.Fprintf(&b, "PI-Hyb, low voltage %.0f%%: best duty %g\n", 100*vmin, d)
		}
	}
	fmt.Fprintf(&b, "Hyb (no PI control):      best duty %g\n", c.BestDutyHyb)
	return b.String()
}
