//go:build !race

// The differential test runs several hundred coupled simulations, which
// the race detector slows beyond CI's budget; the sharing code is raced by
// TestFig4ForkedMatchesDirect, TestFig4ParallelDeterminism and
// TestTracedJobsRunAlone.

package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"hybriddtm/internal/obs"
)

// TestSharedRunsMatchSolo is the differential test of core sharing: every
// batch, at 1, 2 or 4 workers, gives Measurements deep-equal to solo
// runs, keeps at most Workers + 1 cores alive and frees them all. The
// batches are Figure 4 (stall and ideal), Figure 3a and the crossover
// invariance study, one mixing thermal step sizes (only runs at the first
// sharing run's step size follow the core) and one carrying a job-config
// Profiler (that run goes alone from step 0). Runs share a core while
// their policies act alike: FG and PI-Hyb until PI-Hyb's integrator
// reaches its cap, Figure 3a's duty-cycle variants until theirs part. On
// Figure 4 pool.core_steps must fall below sim.thermal_steps, so the test
// does not pass vacuously; TestAlikeRunsShareOneCore pins that sharing
// goes on past the first action.
func TestSharedRunsMatchSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("hundreds of coupled runs")
	}
	opts := quarterOptions(t)
	cfg := opts.Config
	mixed := fig4Jobs(t, opts, true)[:6]
	for i := range mixed {
		if i%2 == 1 {
			mixed[i].Config.ThermalStepCycles = cfg.ThermalStepCycles / 2
		}
	}
	profiled := fig4Jobs(t, opts, true)[:6]
	profiled[1].Config.Profiler = obs.NewStageProfiler()
	profiled[4].Config.Profiler = obs.NewStageProfiler()
	// The two largest batches run at one worker count each.
	batches := []struct {
		name    string
		jobs    []Job
		workers []int
	}{
		{"fig4-stall", fig4Jobs(t, opts, true), []int{1, 2, 4}},
		{"fig4-ideal", fig4Jobs(t, opts, false), []int{1, 2, 4}},
		{"fig3a", planJobs(t, opts, func(p *Plan) { p.Fig3a(true) }), []int{2}},
		{"crossover", planJobs(t, opts, func(p *Plan) { p.CrossoverInvariance() }), []int{4}},
		{"mixed-step", mixed, []int{1, 2, 4}},
		{"profiler", profiled, []int{1, 2, 4}},
	}
	for _, bt := range batches {
		want := solo(t, opts, bt.jobs)
		for _, workers := range bt.workers {
			o := opts
			o.Workers = workers
			o.Metrics = obs.NewRegistry()
			r, err := NewRunner(o)
			if err != nil {
				t.Fatal(err)
			}
			got, b, err := r.runJobs(context.Background(), bt.jobs, nil)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", bt.name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("%s, %d workers, job %d:\nshared %+v\nsolo   %+v", bt.name, workers, i, got[i], want[i])
					}
				}
			}
			if b.peak > workers+1 || b.live != 0 {
				t.Errorf("%s, %d workers: peak %d live cores (bound %d), %d left alive", bt.name, workers, b.peak, workers+1, b.live)
			}
			cs, steps := o.Metrics.Counter(obs.MetricPoolCoreSteps).Value(), o.Metrics.Counter(obs.MetricThermalSteps).Value()
			if strings.HasPrefix(bt.name, "fig4") && !(cs < steps) {
				t.Errorf("%s, %d workers: %s %d, %s %d: no step was shared", bt.name, workers,
					obs.MetricPoolCoreSteps, cs, obs.MetricThermalSteps, steps)
			}
			t.Logf("%s, %d workers: %d of %d steps on own cores, peak %d cores", bt.name, workers, cs, steps, b.peak)
		}
	}
}
