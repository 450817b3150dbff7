package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"hybriddtm/internal/dtm"
	"hybriddtm/internal/trace"
)

// warmEntries reports how many warm states the runner still holds.
func warmEntries(r *Runner) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.warm)
}

func twoBenchOptions(t *testing.T) Options {
	t.Helper()
	opts := tinyOptions(t)
	art, ok := trace.ByName("art")
	if !ok {
		t.Fatal("art missing")
	}
	opts.Benchmarks = append(opts.Benchmarks, art)
	return opts
}

// direct computes a job's slowdown on a fresh runner through Run, which
// never shares warm state: plain core.New for the baseline and the policy.
func direct(t *testing.T, opts Options, job Job) float64 {
	t.Helper()
	opts.Workers = 1
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.RunWithConfig(job.Config, job.Profile, job.Factory)
	if err != nil {
		t.Fatal(err)
	}
	return m.Slowdown
}

// TestFig4ForkedMatchesDirect runs Figure 4 through RunJobs — whose runs
// fork one warm state per benchmark — at one and two workers, and checks
// both against every measurement recomputed with fresh simulators.
func TestFig4ForkedMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("thirty coupled runs")
	}
	opts := twoBenchOptions(t)
	fig4 := func(workers int) Fig4Result {
		t.Helper()
		o := opts
		o.Workers = workers
		r, err := NewRunner(o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Fig4(context.Background(), r, true)
		if err != nil {
			t.Fatal(err)
		}
		if n := warmEntries(r); n != 0 {
			t.Errorf("runner holds %d warm entries after Fig4", n)
		}
		return res
	}
	serial, parallel := fig4(1), fig4(2)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Fig4 at 2 workers differs from 1:\n%+v\n%+v", parallel, serial)
	}
	cfg := opts.Config
	cfg.DVSStall = true
	for _, f := range []PolicyFactory{FGPolicy(cfg), DVSPolicy(cfg), PIHybPolicy(cfg, true), HybPolicy(cfg, true)} {
		for i, b := range opts.Benchmarks {
			want := direct(t, opts, Job{Config: cfg, Profile: b, Factory: f})
			if got := serial.Policies[f.Name][i]; got != want {
				t.Errorf("%s/%s: forked slowdown %v, direct %v", b.Name, f.Name, got, want)
			}
		}
	}
}

// TestFig3aForkedMatchesDirect is the Figure 3a counterpart: nine runs
// share one warm state, and every row equals the direct recomputation.
func TestFig3aForkedMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty-seven coupled runs")
	}
	opts := tinyOptions(t)
	fig3a := func(workers int) Fig3aResult {
		t.Helper()
		o := opts
		o.Workers = workers
		r, err := NewRunner(o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Fig3a(context.Background(), r, true)
		if err != nil {
			t.Fatal(err)
		}
		if n := warmEntries(r); n != 0 {
			t.Errorf("runner holds %d warm entries after Fig3a", n)
		}
		return res
	}
	serial, parallel := fig3a(1), fig3a(2)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Fig3a at 2 workers differs from 1:\n%+v\n%+v", parallel, serial)
	}
	cfg := opts.Config
	cfg.DVSStall = true
	for i, duty := range DutyCycleAxis {
		want := direct(t, opts, Job{Config: cfg, Profile: opts.Benchmarks[0], Factory: pihybAtDuty(cfg, duty)})
		if got := serial.Rows[i].MeanSlowdown; got != want {
			t.Errorf("duty %g: forked slowdown %v, direct %v", duty, got, want)
		}
	}
}

// TestRunJobsReleasesWarm checks that no warm state outlives its batch,
// whether the batch succeeds, a job fails, or the context is canceled
// part-way through.
func TestRunJobsReleasesWarm(t *testing.T) {
	opts := twoBenchOptions(t)
	opts.Workers = 2
	cfg := opts.Config
	good := DVSPolicy(cfg)
	jobs := func(f PolicyFactory) []Job {
		var js []Job
		for _, b := range opts.Benchmarks {
			js = append(js, Job{Config: cfg, Profile: b, Factory: good}, Job{Config: cfg, Profile: b, Factory: f})
		}
		return js
	}

	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunJobs(context.Background(), jobs(good)); err != nil {
		t.Fatal(err)
	}
	if n := warmEntries(r); n != 0 {
		t.Errorf("success: runner holds %d warm entries", n)
	}

	boom := errors.New("factory exploded")
	bad := PolicyFactory{Name: "bad", New: func() (dtm.Policy, error) { return nil, boom }}
	if r, err = NewRunner(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunJobs(context.Background(), jobs(bad)); !errors.Is(err, boom) {
		t.Errorf("failing batch: err = %v, want %v", err, boom)
	}
	if n := warmEntries(r); n != 0 {
		t.Errorf("failed job: runner holds %d warm entries", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceling := PolicyFactory{Name: "cancel", New: func() (dtm.Policy, error) {
		cancel()
		return good.New()
	}}
	if r, err = NewRunner(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunJobs(ctx, jobs(canceling)); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled batch: err = %v, want context.Canceled", err)
	}
	if n := warmEntries(r); n != 0 {
		t.Errorf("canceled batch: runner holds %d warm entries", n)
	}
}
