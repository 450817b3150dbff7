package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"hybriddtm/internal/dtm"
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
	//dtmlint:allow detguard min/max reduction is iteration-order independent
	for _, v := range s.MeanSlowdown {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}

// StepSizeStudy regenerates the §4.1 step-size comparison for one DVS
// variant. The ladder × benchmark grid runs as one batch on the worker
// pool; each ladder row carries its own config (the simulator must expose
// the same operating points the policy requests).
func StepSizeStudy(ctx context.Context, r *Runner, stall bool) (StepSizeResult, error) {
	cfg := r.opts.Config
	cfg.DVSStall = stall
	out := StepSizeResult{
		Stall:        stall,
		MeanSlowdown: make(map[int]float64),
		Violations:   make(map[int]bool),
	}
	nb := len(r.opts.Benchmarks)
	jobs := make([]Job, 0, len(StepSizeLadders)*nb)
	for _, n := range StepSizeLadders {
		steps := n
		ladder, err := dvfs.NewLadder(cfg.Tech, steps, cfg.VMinFrac)
		if err != nil {
			return StepSizeResult{}, err
		}
		factory := PolicyFactory{
			Name: fmt.Sprintf("DVS-%dstep", steps),
			New: func() (dtm.Policy, error) {
				l, err := dvfs.NewLadder(cfg.Tech, steps, cfg.VMinFrac)
				if err != nil {
					return nil, err
				}
				if steps == 2 {
					return dtm.DVSBinary(cfg.Trigger, l)
				}
				return dtm.DVSPI(cfg.Trigger, l)
			},
		}
		runCfg := cfg
		runCfg.Ladder = ladder
		for _, b := range r.opts.Benchmarks {
			jobs = append(jobs, Job{Config: runCfg, Profile: b, Factory: factory})
		}
	}
	ms, err := r.RunJobs(ctx, jobs)
	if err != nil {
		return StepSizeResult{}, err
	}
	for i, n := range StepSizeLadders {
		row := ms[i*nb : (i+1)*nb]
		out.MeanSlowdown[n] = stats.Mean(Slowdowns(row))
		out.Violations[n] = AnyViolation(row)
	}
	return out, nil
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
	//dtmlint:allow detguard max reduction is iteration-order independent
	for frac, ok := range v.ViolationFree {
		if ok && frac > best {
			best = frac
		}
	}
	return best
}

// VoltageFloor regenerates the low-voltage search with binary DVS-stall.
// All fraction × benchmark simulations run as one batch.
func VoltageFloor(ctx context.Context, r *Runner) (VoltageFloorResult, error) {
	out := VoltageFloorResult{
		ViolationFree: make(map[float64]bool),
		MeanSlowdown:  make(map[float64]float64),
	}
	nb := len(r.opts.Benchmarks)
	jobs := make([]Job, 0, len(VoltageFloorFracs)*nb)
	for _, frac := range VoltageFloorFracs {
		cfg := r.opts.Config
		cfg.DVSStall = true
		cfg.VMinFrac = frac
		for _, b := range r.opts.Benchmarks {
			jobs = append(jobs, Job{Config: cfg, Profile: b, Factory: DVSPolicy(cfg)})
		}
	}
	ms, err := r.RunJobs(ctx, jobs)
	if err != nil {
		return VoltageFloorResult{}, err
	}
	for i, frac := range VoltageFloorFracs {
		row := ms[i*nb : (i+1)*nb]
		out.ViolationFree[frac] = !AnyViolation(row)
		out.MeanSlowdown[frac] = stats.Mean(Slowdowns(row))
	}
	return out, nil
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

// Characterise regenerates the §3 benchmark characterization: the nine
// hottest SPEC programs, all spending most of their time above the trigger,
// with the integer register file the hottest unit. The baselines run as one
// batch on the worker pool and land in the shared cache.
func Characterise(ctx context.Context, r *Runner) ([]CharacteriseRow, error) {
	if _, _, err := r.runJobs(ctx, nil, r.opts.Benchmarks); err != nil {
		return nil, err
	}
	rows := make([]CharacteriseRow, len(r.opts.Benchmarks))
	for i, b := range r.opts.Benchmarks {
		res, err := r.BaselineContext(ctx, b)
		if err != nil {
			return nil, err
		}
		rows[i] = CharacteriseRow{
			Benchmark:        b.Name,
			IPC:              res.AvgIPC,
			AvgPower:         res.AvgPower,
			MaxTemp:          res.MaxTemp,
			HottestBlock:     res.HottestBlock,
			FracAboveTrigger: res.TimeAboveTrigger / res.WallTime,
			Violates:         res.Violated(),
		}
	}
	return rows, nil
}

// FormatCharacterise renders the characterization table.
func FormatCharacterise(rows []CharacteriseRow) string {
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

// CrossoverInvariance regenerates the §5.1 invariance study. The whole
// (vmin × duty × benchmark) grid — plus the feedback-free Hyb sweep — is
// submitted as one batch; rows with violations are excluded from the
// best-duty search, exactly as in the serial implementation.
func CrossoverInvariance(ctx context.Context, r *Runner) (CrossoverInvarianceResult, error) {
	nb := len(r.opts.Benchmarks)
	ms, err := r.RunJobs(ctx, crossoverJobs(r))
	if err != nil {
		return CrossoverInvarianceResult{}, err
	}
	// bestDuty scans consecutive duty rows starting at measurement offset
	// `at`, skipping rows with violations, and returns the duty with the
	// lowest mean slowdown (0 if every row violates).
	bestDuty := func(at int) float64 {
		var slows, duties []float64
		for i, duty := range CrossoverDuties {
			row := ms[at+i*nb : at+(i+1)*nb]
			if AnyViolation(row) {
				continue
			}
			slows = append(slows, stats.Mean(Slowdowns(row)))
			duties = append(duties, duty)
		}
		if len(slows) == 0 {
			return 0
		}
		return duties[ArgMin(slows)]
	}

	out := CrossoverInvarianceResult{BestDutyPerVMin: make(map[float64]float64)}
	perVMin := len(CrossoverDuties) * nb
	for vi, vmin := range CrossoverVMins {
		if d := bestDuty(vi * perVMin); !stats.SameFloat(d, 0) {
			out.BestDutyPerVMin[vmin] = d
		}
	}
	out.BestDutyHyb = bestDuty(len(CrossoverVMins) * perVMin)
	return out, nil
}

// crossoverJobs is the invariance study's batch: the PI-Hyb rows, one per
// (vmin, duty) pair, then the Hyb rows, one per duty.
func crossoverJobs(r *Runner) []Job {
	var jobs []Job
	// PI-Hyb rows: one per (vmin, duty) pair.
	for _, vmin := range CrossoverVMins {
		cfg := r.opts.Config
		cfg.DVSStall = true
		cfg.VMinFrac = vmin
		for _, duty := range CrossoverDuties {
			gate := 1 / duty
			factory := PolicyFactory{
				Name: fmt.Sprintf("PI-Hyb(d=%g,v=%g)", duty, vmin),
				New: func() (dtm.Policy, error) {
					ladder, err := dvfs.Binary(cfg.Tech, cfg.VMinFrac)
					if err != nil {
						return nil, err
					}
					return dtm.PIHyb(cfg.Trigger, dtm.DefaultFGGain, gate, ladder)
				},
			}
			for _, b := range r.opts.Benchmarks {
				jobs = append(jobs, Job{Config: cfg, Profile: b, Factory: factory})
			}
		}
	}
	// Hyb rows at the default low voltage: one per duty.
	hybCfg := r.opts.Config
	hybCfg.DVSStall = true
	for _, duty := range CrossoverDuties {
		gate := 1 / duty
		factory := PolicyFactory{
			Name: fmt.Sprintf("Hyb(d=%g)", duty),
			New: func() (dtm.Policy, error) {
				ladder, err := dvfs.Binary(hybCfg.Tech, hybCfg.VMinFrac)
				if err != nil {
					return nil, err
				}
				return dtm.Hyb(hybCfg.Trigger, HybDelta, gate, ladder)
			},
		}
		for _, b := range r.opts.Benchmarks {
			jobs = append(jobs, Job{Config: hybCfg, Profile: b, Factory: factory})
		}
	}
	return jobs
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
