package experiments

import (
	"context"

	"hybriddtm/internal/core"
	"hybriddtm/internal/trace"
)

// Plan is an evaluation declared as rows and run as one RunJobs batch, so
// every figure in it shares each benchmark's warm state and, while their
// runs act alike, its cpu core (see share.go). A row is one (config, policy) pair over every benchmark of
// the Runner. A figure method — Fig3a, Fig3b, Fig4, StepSizeStudy,
// VoltageFloor, CrossoverInvariance, LocalVsFG, Characterise — adds its
// rows and a fold over their measurements, and returns a pointer to its
// result, which is filled in when Run returns nil.
type Plan struct {
	r     *Runner
	rows  []planRow
	folds []planFold
	bases bool  // Characterise wants the baselines
	err   error // first failure while declaring
}

type planRow struct {
	cfg     core.Config
	factory PolicyFactory
}

// planFold builds a figure from rows [from, to).
type planFold struct {
	from, to int
	fn       func(ctx context.Context, rows [][]Measurement) error
}

// NewPlan starts an empty plan on the runner.
func NewPlan(r *Runner) *Plan { return &Plan{r: r} }

// row declares one (config, policy) row.
func (p *Plan) row(cfg core.Config, factory PolicyFactory) {
	p.rows = append(p.rows, planRow{cfg: cfg, factory: factory})
}

// scheme declares a row whose policy PolicyByName builds, shown as name.
func (p *Plan) scheme(cfg core.Config, scheme string, gate float64, steps int, name string) {
	f, err := PolicyByName(&cfg, scheme, gate, steps)
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		return
	}
	f.Name = name
	p.row(cfg, f)
}

// fold closes the rows declared since the previous fold: after the batch,
// fn receives their measurements, one slice per row in benchmark order.
func (p *Plan) fold(fn func(ctx context.Context, rows [][]Measurement) error) {
	from := 0
	if n := len(p.folds); n > 0 {
		from = p.folds[n-1].to
	}
	p.folds = append(p.folds, planFold{from: from, to: len(p.rows), fn: fn})
}

// jobs expands the rows over the runner's benchmarks, row by row.
func (p *Plan) jobs() []Job {
	jobs := make([]Job, 0, len(p.rows)*len(p.r.opts.Benchmarks))
	for _, row := range p.rows {
		for _, b := range p.r.opts.Benchmarks {
			jobs = append(jobs, Job{Config: row.cfg, Profile: b, Factory: row.factory})
		}
	}
	return jobs
}

// Run runs every row in one RunJobs batch and folds each figure's result.
// A plan runs once.
func (p *Plan) Run(ctx context.Context) error {
	_, err := p.run(ctx)
	return err
}

// run is Run that also returns the finished batch.
func (p *Plan) run(ctx context.Context) (*batch, error) {
	if p.err != nil {
		return nil, p.err
	}
	jobs := p.jobs()
	var bases []trace.Profile
	if p.bases && len(jobs) == 0 {
		bases = p.r.opts.Benchmarks // every job's baseline is in the batch anyway
	}
	ms, b, err := p.r.runJobs(ctx, jobs, bases)
	if err != nil {
		return b, err
	}
	nb := len(p.r.opts.Benchmarks)
	for _, f := range p.folds {
		rows := make([][]Measurement, f.to-f.from)
		for i := range rows {
			at := (f.from + i) * nb
			rows[i] = ms[at : at+nb]
		}
		if err := f.fn(ctx, rows); err != nil {
			return b, err
		}
	}
	return b, nil
}
