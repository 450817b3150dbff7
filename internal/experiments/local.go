package experiments

import (
	"context"
	"fmt"
	"strings"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/floorplan"
	"hybriddtm/internal/stats"
)

// EV6Domains maps the EV6 floorplan into the three issue domains local
// toggling can gate: the integer cluster, the floating-point cluster and
// the memory pipeline. Front-end blocks (I-cache, predictor, ITB) are not
// in any domain — local toggling leaves fetch alone, which is precisely
// its contrast with fetch gating.
func EV6Domains(fp *floorplan.Floorplan) dtm.Domains {
	idx := func(names ...string) []int {
		out := make([]int, 0, len(names))
		for _, n := range names {
			if i := fp.Index(n); i >= 0 {
				out = append(out, i)
			}
		}
		return out
	}
	return dtm.Domains{
		Int: idx(floorplan.IntReg, floorplan.IntExec, floorplan.IntQ, floorplan.IntMap),
		FP:  idx(floorplan.FPAdd, floorplan.FPMul, floorplan.FPReg, floorplan.FPMap, floorplan.FPQ),
		Mem: idx(floorplan.DCache, floorplan.DTB, floorplan.LdStQ),
	}
}

// LocalTogglingPolicy returns the local-toggling factory at the standard
// gain and duty bound.
func LocalTogglingPolicy(cfg core.Config) PolicyFactory { return named(cfg, "local", 0, "Local") }

// LocalVsFGResult reports the §2 comparison the paper summarizes in one
// sentence: "We have found that local toggling confers little advantage
// over fetch gating and do not consider it further."
type LocalVsFGResult struct {
	Benchmarks      []string
	FG, Local       []float64
	FGViolations    bool
	LocalViolations bool
}

// FGMean returns fetch gating's mean slowdown.
func (r LocalVsFGResult) FGMean() float64 { return stats.Mean(r.FG) }

// LocalMean returns local toggling's mean slowdown.
func (r LocalVsFGResult) LocalMean() float64 { return stats.Mean(r.Local) }

// LocalVsFG declares stand-alone PI fetch gating against local toggling
// across the suite: one row per policy.
func (p *Plan) LocalVsFG() *LocalVsFGResult {
	cfg := p.r.opts.Config
	p.row(cfg, FGPolicy(cfg))
	p.row(cfg, LocalTogglingPolicy(cfg))
	out := &LocalVsFGResult{}
	for _, b := range p.r.opts.Benchmarks {
		out.Benchmarks = append(out.Benchmarks, b.Name)
	}
	p.fold(func(_ context.Context, rows [][]Measurement) error {
		out.FG, out.Local = Slowdowns(rows[0]), Slowdowns(rows[1])
		out.FGViolations, out.LocalViolations = AnyViolation(rows[0]), AnyViolation(rows[1])
		return nil
	})
	return out
}

// String renders the comparison.
func (r LocalVsFGResult) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Local toggling vs. fetch gating (§2)")
	fmt.Fprintf(&b, "%-9s  %8s  %8s\n", "bench", "FG", "Local")
	for i, bench := range r.Benchmarks {
		fmt.Fprintf(&b, "%-9s  %8.4f  %8.4f\n", bench, r.FG[i], r.Local[i])
	}
	fmt.Fprintf(&b, "%-9s  %8.4f  %8.4f\n", "MEAN", r.FGMean(), r.LocalMean())
	if r.FGViolations {
		fmt.Fprintln(&b, "WARNING: FG had thermal violations")
	}
	if r.LocalViolations {
		fmt.Fprintln(&b, "WARNING: local toggling had thermal violations")
	}
	return b.String()
}
