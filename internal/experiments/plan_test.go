package experiments

import (
	"context"
	"reflect"
	"testing"
)

// TestPlanOneBatch declares every section of cmd/experiments on one plan
// and again one section per plan, and checks that the single batch folds
// every figure deep-equal to its own batch, warms each benchmark once
// whatever the rows' DVS variant, low voltage or ladder, and keeps at most
// Workers + 1 cores alive and frees them all.
func TestPlanOneBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of coupled runs")
	}
	opts := twoBenchOptions(t)
	opts.Workers = 2
	sections := []func(*Plan) any{
		func(p *Plan) any { return p.Characterise() },
		func(p *Plan) any { return p.Fig3a(true) },
		func(p *Plan) any { return p.Fig3a(false) },
		func(p *Plan) any { return p.Fig3b() },
		func(p *Plan) any { return p.Fig4(true) },
		func(p *Plan) any { return p.Fig4(false) },
		func(p *Plan) any { return p.StepSizeStudy(true) },
		func(p *Plan) any { return p.StepSizeStudy(false) },
		func(p *Plan) any { return p.VoltageFloor() },
		func(p *Plan) any { return p.CrossoverInvariance() },
		func(p *Plan) any { return p.LocalVsFG() },
	}
	newRunner := func() *Runner {
		t.Helper()
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	one := NewPlan(newRunner())
	got := make([]any, len(sections))
	for i, declare := range sections {
		got[i] = declare(one)
	}
	b, err := one.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.groups) != len(opts.Benchmarks) {
		t.Errorf("one batch made %d warm groups, want one per benchmark (%d)", len(b.groups), len(opts.Benchmarks))
	}
	if b.peak > opts.Workers+1 || b.live != 0 {
		t.Errorf("peak %d live cores (bound %d), %d left alive", b.peak, opts.Workers+1, b.live)
	}

	for i, declare := range sections {
		p := NewPlan(newRunner())
		want := declare(p)
		if err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("section %d: one batch %+v, own batch %+v", i, got[i], want)
		}
	}
}
