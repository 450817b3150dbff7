package experiments

import (
	"context"
	"fmt"
	"strings"

	"hybriddtm/internal/stats"
)

// DutyCycleAxis is the paper's Figure 3 x-axis: duty cycle x means one
// fetch cycle in x is gated, so gate fraction = 1/x. Larger duty values are
// milder gating; in PI-Hyb they mean DVS engages sooner.
var DutyCycleAxis = []float64{20, 10, 5, 4, 3, 2.5, 2, 1.5}

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

// Fig3a declares Figure 3a: one PI-Hyb row per duty cycle.
func (p *Plan) Fig3a(stall bool) *Fig3aResult {
	cfg := p.r.opts.Config
	cfg.DVSStall = stall
	for _, duty := range DutyCycleAxis {
		p.scheme(cfg, "pi-hyb", 1/duty, 0, fmt.Sprintf("PI-Hyb(d=%g)", duty))
	}
	out := &Fig3aResult{Stall: stall}
	p.fold(func(_ context.Context, rows [][]Measurement) error {
		for i, row := range rows {
			out.Rows = append(out.Rows, Fig3aRow{
				DutyCycle:    DutyCycleAxis[i],
				MeanSlowdown: stats.Mean(Slowdowns(row)),
				Violations:   AnyViolation(row),
			})
		}
		return nil
	})
	return out
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

// Fig3b declares Figure 3b: one fixed-FG row per duty cycle, then the
// DVS reference row.
func (p *Plan) Fig3b() *Fig3bResult {
	cfg := p.r.opts.Config
	cfg.DVSStall = true
	for _, duty := range DutyCycleAxis {
		p.scheme(cfg, "fg-fixed", 1/duty, 0, fmt.Sprintf("FG(d=%g)", duty))
	}
	p.row(cfg, DVSPolicy(cfg))
	out := &Fig3bResult{}
	p.fold(func(_ context.Context, rows [][]Measurement) error {
		for i, duty := range DutyCycleAxis {
			out.Rows = append(out.Rows, Fig3bRow{
				DutyCycle:    duty,
				MeanSlowdown: stats.Mean(Slowdowns(rows[i])),
				Violations:   AnyViolation(rows[i]),
			})
		}
		out.DVSSlowdown = stats.Mean(Slowdowns(rows[len(DutyCycleAxis)]))
		return nil
	})
	return out
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

// Fig4 regenerates Figure 4a (stall=true) or 4b (stall=false) as a plan
// of its own.
func Fig4(ctx context.Context, r *Runner, stall bool) (Fig4Result, error) {
	p := NewPlan(r)
	res := p.Fig4(stall)
	if err := p.Run(ctx); err != nil {
		return Fig4Result{}, err
	}
	return *res, nil
}

// Fig4 declares Figure 4a (stall=true) or 4b (stall=false): one row per
// policy.
func (p *Plan) Fig4(stall bool) *Fig4Result {
	cfg := p.r.opts.Config
	cfg.DVSStall = stall
	out := &Fig4Result{
		Stall:      stall,
		Policies:   make(map[string][]float64),
		Violations: make(map[string]bool),
		VsDVS:      make(map[string]stats.PairedTTestResult),
	}
	for _, b := range p.r.opts.Benchmarks {
		out.Benchmarks = append(out.Benchmarks, b.Name)
	}
	factories := []PolicyFactory{
		FGPolicy(cfg),
		DVSPolicy(cfg),
		PIHybPolicy(cfg, stall),
		HybPolicy(cfg, stall),
	}
	for _, f := range factories {
		p.row(cfg, f)
	}
	p.fold(func(_ context.Context, rows [][]Measurement) error {
		for i, f := range factories {
			out.Policies[f.Name] = Slowdowns(rows[i])
			out.Violations[f.Name] = AnyViolation(rows[i])
		}
		// The paired t-test needs at least two benchmarks; smoke-scale runs
		// on a single workload simply omit the significance column.
		if dvs := out.Policies["DVS"]; len(dvs) >= 2 {
			for _, name := range Fig4PolicyOrder {
				if name == "DVS" {
					continue
				}
				res, err := stats.PairedTTest(out.Policies[name], dvs)
				if err != nil {
					return err
				}
				out.VsDVS[name] = res
			}
		}
		return nil
	})
	return out
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
