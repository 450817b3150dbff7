package experiments

import (
	"context"
	"fmt"
	"strings"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/stats"
)

// DutyCycleAxis is the paper's Figure 3 x-axis: duty cycle x means one
// fetch cycle in x is gated, so gate fraction = 1/x. Larger duty values are
// milder gating; in PI-Hyb they mean DVS engages sooner.
var DutyCycleAxis = []float64{20, 10, 5, 4, 3, 2.5, 2, 1.5}

// pihybAtDuty builds the PI-Hyb factory with its crossover at the given
// duty cycle.
func pihybAtDuty(cfg core.Config, duty float64) PolicyFactory {
	gate := 1 / duty
	return PolicyFactory{
		Name: fmt.Sprintf("PI-Hyb(d=%g)", duty),
		New: func() (dtm.Policy, error) {
			ladder, err := dvfs.Binary(cfg.Tech, cfg.VMinFrac)
			if err != nil {
				return nil, err
			}
			return dtm.PIHyb(cfg.Trigger, dtm.DefaultFGGain, gate, ladder)
		},
	}
}

// Fig3aRow is one point of Figure 3a.
type Fig3aRow struct {
	DutyCycle    float64 // paper axis value (gate = 1/DutyCycle)
	MeanSlowdown float64
	Violations   bool
}

// Fig3aResult is the PI-Hyb crossover sweep (Figure 3a): slowdown as a
// function of the maximum fetch-gating duty cycle, for the given DVS
// variant. The minimum identifies the ILP/DVS crossover (§5.1).
type Fig3aResult struct {
	Stall bool
	Rows  []Fig3aRow
}

// Fig3a regenerates Figure 3a. The whole duty × benchmark grid is submitted
// to the worker pool as one batch; RunJobs groups each benchmark's runs so
// they share one warm state.
func Fig3a(ctx context.Context, r *Runner, stall bool) (Fig3aResult, error) {
	cfg := r.opts.Config
	cfg.DVSStall = stall
	nb := len(r.opts.Benchmarks)
	jobs := make([]Job, 0, len(DutyCycleAxis)*nb)
	for _, duty := range DutyCycleAxis {
		factory := pihybAtDuty(cfg, duty)
		for _, b := range r.opts.Benchmarks {
			jobs = append(jobs, Job{Config: cfg, Profile: b, Factory: factory})
		}
	}
	ms, err := r.RunJobs(ctx, jobs)
	if err != nil {
		return Fig3aResult{}, err
	}
	out := Fig3aResult{Stall: stall}
	for i, duty := range DutyCycleAxis {
		row := ms[i*nb : (i+1)*nb]
		out.Rows = append(out.Rows, Fig3aRow{
			DutyCycle:    duty,
			MeanSlowdown: stats.Mean(Slowdowns(row)),
			Violations:   AnyViolation(row),
		})
	}
	return out, nil
}

// BestDuty returns the duty cycle with the lowest mean slowdown among
// violation-free configurations.
func (f Fig3aResult) BestDuty() float64 {
	best, bestSlow := 0.0, 0.0
	for _, row := range f.Rows {
		if row.Violations {
			continue
		}
		if stats.SameFloat(best, 0) || row.MeanSlowdown < bestSlow {
			best, bestSlow = row.DutyCycle, row.MeanSlowdown
		}
	}
	return best
}

// String renders the figure as a table.
func (f Fig3aResult) String() string {
	var b strings.Builder
	mode := "DVS-stall"
	if !f.Stall {
		mode = "DVS-ideal"
	}
	fmt.Fprintf(&b, "Figure 3a: PI-Hyb slowdown vs. max FG duty cycle (%s)\n", mode)
	fmt.Fprintf(&b, "%10s  %9s  %s\n", "duty", "slowdown", "violations")
	for _, row := range f.Rows {
		v := ""
		if row.Violations {
			v = "VIOLATED"
		}
		fmt.Fprintf(&b, "%10.2f  %9.4f  %s\n", row.DutyCycle, row.MeanSlowdown, v)
	}
	fmt.Fprintf(&b, "best duty cycle: %g\n", f.BestDuty())
	return b.String()
}

// Fig3bRow is one point of Figure 3b.
type Fig3bRow struct {
	DutyCycle    float64
	MeanSlowdown float64
	Violations   bool
}

// Fig3bResult is the stand-alone fixed fetch-gating sweep with the DVS
// overhead superimposed as a reference line (Figure 3b). Most duty cycles
// cannot eliminate all violations; slowdown grows roughly linearly with
// the gated fraction once ILP is exhausted (§5.1).
type Fig3bResult struct {
	Rows        []Fig3bRow
	DVSSlowdown float64 // binary DVS-stall mean, the horizontal line
}

// Fig3b regenerates Figure 3b. The FG duty grid and the DVS reference
// suite are submitted as one batch.
func Fig3b(ctx context.Context, r *Runner) (Fig3bResult, error) {
	cfg := r.opts.Config
	cfg.DVSStall = true
	nb := len(r.opts.Benchmarks)
	jobs := make([]Job, 0, (len(DutyCycleAxis)+1)*nb)
	for _, duty := range DutyCycleAxis {
		gate := 1 / duty
		factory := PolicyFactory{
			Name: fmt.Sprintf("FG(d=%g)", duty),
			New: func() (dtm.Policy, error) {
				return dtm.FixedFG(cfg.Trigger, gate)
			},
		}
		for _, b := range r.opts.Benchmarks {
			jobs = append(jobs, Job{Config: cfg, Profile: b, Factory: factory})
		}
	}
	for _, b := range r.opts.Benchmarks {
		jobs = append(jobs, Job{Config: cfg, Profile: b, Factory: DVSPolicy(cfg)})
	}
	ms, err := r.RunJobs(ctx, jobs)
	if err != nil {
		return Fig3bResult{}, err
	}
	var out Fig3bResult
	for i, duty := range DutyCycleAxis {
		row := ms[i*nb : (i+1)*nb]
		out.Rows = append(out.Rows, Fig3bRow{
			DutyCycle:    duty,
			MeanSlowdown: stats.Mean(Slowdowns(row)),
			Violations:   AnyViolation(row),
		})
	}
	dvs := ms[len(DutyCycleAxis)*nb:]
	out.DVSSlowdown = stats.Mean(Slowdowns(dvs))
	return out, nil
}

// String renders the figure as a table.
func (f Fig3bResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3b: stand-alone fixed FG slowdown vs. duty cycle (DVS reference %.4f)\n", f.DVSSlowdown)
	fmt.Fprintf(&b, "%10s  %9s  %s\n", "duty", "slowdown", "violations")
	for _, row := range f.Rows {
		v := ""
		if row.Violations {
			v = "VIOLATED"
		}
		fmt.Fprintf(&b, "%10.2f  %9.4f  %s\n", row.DutyCycle, row.MeanSlowdown, v)
	}
	return b.String()
}

// Fig4Result is the policy comparison of Figure 4 for one DVS variant:
// per-benchmark slowdowns for FG, DVS, PI-Hyb and Hyb, with the paired
// t-test against DVS the paper reports at the 99% level (§5.2).
type Fig4Result struct {
	Stall      bool
	Benchmarks []string
	// Per policy name: slowdowns in benchmark order.
	Policies map[string][]float64
	// Violations per policy.
	Violations map[string]bool
	// Significance of the mean difference vs DVS.
	VsDVS map[string]stats.PairedTTestResult
}

// Fig4PolicyOrder is the presentation order of Figure 4's bars.
var Fig4PolicyOrder = []string{"FG", "DVS", "PI-Hyb", "Hyb"}

// Fig4 regenerates Figure 4a (stall=true) or 4b (stall=false). All policy
// × benchmark simulations run as one batch on the worker pool.
func Fig4(ctx context.Context, r *Runner, stall bool) (Fig4Result, error) {
	cfg := r.opts.Config
	cfg.DVSStall = stall
	out := Fig4Result{
		Stall:      stall,
		Policies:   make(map[string][]float64),
		Violations: make(map[string]bool),
		VsDVS:      make(map[string]stats.PairedTTestResult),
	}
	for _, b := range r.opts.Benchmarks {
		out.Benchmarks = append(out.Benchmarks, b.Name)
	}
	factories := []PolicyFactory{
		FGPolicy(cfg),
		DVSPolicy(cfg),
		PIHybPolicy(cfg, stall),
		HybPolicy(cfg, stall),
	}
	nb := len(r.opts.Benchmarks)
	jobs := make([]Job, 0, len(factories)*nb)
	for _, f := range factories {
		for _, b := range r.opts.Benchmarks {
			jobs = append(jobs, Job{Config: cfg, Profile: b, Factory: f})
		}
	}
	ms, err := r.RunJobs(ctx, jobs)
	if err != nil {
		return Fig4Result{}, err
	}
	for i, f := range factories {
		row := ms[i*nb : (i+1)*nb]
		out.Policies[f.Name] = Slowdowns(row)
		out.Violations[f.Name] = AnyViolation(row)
	}
	// The paired t-test needs at least two benchmarks; smoke-scale runs on
	// a single workload simply omit the significance column.
	if dvs := out.Policies["DVS"]; len(dvs) >= 2 {
		for _, name := range Fig4PolicyOrder {
			if name == "DVS" {
				continue
			}
			res, err := stats.PairedTTest(out.Policies[name], dvs)
			if err != nil {
				return Fig4Result{}, err
			}
			out.VsDVS[name] = res
		}
	}
	return out, nil
}

// Mean returns the mean slowdown for a policy.
func (f Fig4Result) Mean(policy string) float64 {
	return stats.Mean(f.Policies[policy])
}

// OverheadReduction returns the fraction of DVS's DTM overhead a policy
// eliminates: (DVS − policy)/(DVS − 1). The paper's headline is ≈25% for
// the hybrids under DVS-stall and ≈11% under DVS-ideal.
func (f Fig4Result) OverheadReduction(policy string) float64 {
	dvs := f.Mean("DVS")
	if dvs <= 1 {
		return 0
	}
	return (dvs - f.Mean(policy)) / (dvs - 1)
}

// String renders the figure as a table.
func (f Fig4Result) String() string {
	var b strings.Builder
	mode := "a (DVS-stall)"
	if !f.Stall {
		mode = "b (DVS-ideal)"
	}
	fmt.Fprintf(&b, "Figure 4%s: DTM slowdown by policy\n", mode)
	fmt.Fprintf(&b, "%-9s", "bench")
	for _, p := range Fig4PolicyOrder {
		fmt.Fprintf(&b, "  %8s", p)
	}
	fmt.Fprintln(&b)
	for i, bench := range f.Benchmarks {
		fmt.Fprintf(&b, "%-9s", bench)
		for _, p := range Fig4PolicyOrder {
			fmt.Fprintf(&b, "  %8.4f", f.Policies[p][i])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-9s", "MEAN")
	for _, p := range Fig4PolicyOrder {
		fmt.Fprintf(&b, "  %8.4f", f.Mean(p))
	}
	fmt.Fprintln(&b)
	for _, p := range Fig4PolicyOrder {
		if v := f.Violations[p]; v {
			fmt.Fprintf(&b, "WARNING: %s had thermal violations\n", p)
		}
	}
	for _, p := range []string{"PI-Hyb", "Hyb"} {
		t, ok := f.VsDVS[p]
		if !ok { // Fig4 ran no paired test (fewer than 2 benchmarks)
			continue
		}
		fmt.Fprintf(&b, "%s vs DVS: Δmean %+.4f, overhead reduction %.1f%%, p=%.4g (99%% significant: %v)\n",
			p, t.MeanDiff, 100*f.OverheadReduction(p), t.P, t.SignificantAt(0.99))
	}
	return b.String()
}
