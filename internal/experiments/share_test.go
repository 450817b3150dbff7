package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/trace"
)

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

// direct computes a job's slowdown without sharing anything (see solo).
func direct(t *testing.T, opts Options, job Job) float64 {
	t.Helper()
	return solo(t, opts, []Job{job})[0].Slowdown
}

// TestFig4ForkedMatchesDirect runs Figure 4 through RunJobs — whose runs
// share one warm core per benchmark — at one and two workers, and checks
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
		return res
	}
	serial, parallel := fig4(1), fig4(2)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Fig4 at 2 workers differs from 1:\n%+v\n%+v", parallel, serial)
	}
	for k, job := range fig4Jobs(t, opts, true) {
		i := k % len(opts.Benchmarks)
		if got, want := serial.Policies[job.Factory.Name][i], direct(t, opts, job); got != want {
			t.Errorf("%s/%s: forked slowdown %v, direct %v", job.Profile.Name, job.Factory.Name, got, want)
		}
	}
}

// TestFig3aForkedMatchesDirect is the Figure 3a counterpart: nine runs
// share one warm core, and every row equals the direct recomputation.
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
		p := NewPlan(r)
		res := p.Fig3a(true)
		if err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return *res
	}
	serial, parallel := fig3a(1), fig3a(2)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Fig3a at 2 workers differs from 1:\n%+v\n%+v", parallel, serial)
	}
	for i, job := range planJobs(t, opts, func(p *Plan) { p.Fig3a(true) }) {
		if got, want := serial.Rows[i].MeanSlowdown, direct(t, opts, job); got != want {
			t.Errorf("duty %g: forked slowdown %v, direct %v", DutyCycleAxis[i], got, want)
		}
	}
}

// planJobs is the batch a plan declared by declare would run.
func planJobs(t *testing.T, opts Options, declare func(*Plan)) []Job {
	t.Helper()
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(r)
	declare(p)
	if p.err != nil {
		t.Fatal(p.err)
	}
	return p.jobs()
}

// pendingBaselines counts baseline cache entries still in flight.
func pendingBaselines(r *Runner) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.baselines {
		select {
		case <-e.done:
		default:
			n++
		}
	}
	return n
}

// TestRunJobsReleasesWarm checks that no core or baseline claim outlives
// its batch, whether the batch succeeds, a job fails, or the context is
// canceled part-way through.
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
	check := func(name string, r *Runner) {
		t.Helper()
		if n := pendingBaselines(r); n != 0 {
			t.Errorf("%s: %d baselines still in flight", name, n)
		}
	}

	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := r.runJobs(context.Background(), jobs(good), nil)
	if err != nil {
		t.Fatal(err)
	}
	check("success", r)
	if b.live != 0 {
		t.Errorf("success: %d cores still alive", b.live)
	}

	boom := errors.New("factory exploded")
	bad := PolicyFactory{Name: "bad", New: func() (dtm.Policy, error) { return nil, boom }}
	if r, err = NewRunner(opts); err != nil {
		t.Fatal(err)
	}
	if _, _, err = r.runJobs(context.Background(), jobs(bad), nil); !errors.Is(err, boom) {
		t.Errorf("failing batch: err = %v, want %v", err, boom)
	}
	check("failed job", r)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	canceling := PolicyFactory{Name: "cancel", New: func() (dtm.Policy, error) {
		cancel()
		return good.New()
	}}
	if r, err = NewRunner(opts); err != nil {
		t.Fatal(err)
	}
	if _, _, err = r.runJobs(ctx, jobs(canceling), nil); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled batch: err = %v, want context.Canceled", err)
	}
	check("canceled batch", r)
	if _, err := r.BaselineContext(context.Background(), opts.Benchmarks[0]); err != nil {
		t.Errorf("baseline after the canceled batch: %v", err)
	}
}

// quarterOptions runs gzip, gcc and art with dtmbench's quarter-scale
// warm-up and init, and settle and window lengths that take every run past
// its first sensor sample (thermal step 30). gzip's and art's policies
// first act on that sample; gcc's never act, so its runs share their core
// to the end.
func quarterOptions(t *testing.T) Options {
	t.Helper()
	opts := DefaultOptions()
	opts.Instructions = 300_000
	cfg := core.DefaultConfig()
	cfg.WarmupCycles /= 4
	cfg.InitCycles /= 4
	cfg.SettleInstructions = 600_000
	opts.Config = cfg
	opts.Benchmarks = nil
	for _, name := range []string{"gzip", "gcc", "art"} {
		p, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		opts.Benchmarks = append(opts.Benchmarks, p)
	}
	return opts
}

// fig4Jobs is Figure 4's batch for one DVS variant.
func fig4Jobs(t *testing.T, opts Options, stall bool) []Job {
	t.Helper()
	return planJobs(t, opts, func(p *Plan) { p.Fig4(stall) })
}

// solo measures every job on its own, with plain core.New and RunContext
// for the job and for its benchmark's baseline, so nothing is shared.
func solo(t *testing.T, opts Options, jobs []Job) []Measurement {
	t.Helper()
	run := func(cfg core.Config, prof trace.Profile, pol dtm.Policy) core.Result {
		t.Helper()
		sim, err := core.New(cfg, prof, pol)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunContext(context.Background(), opts.Instructions)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bases := make(map[string]core.Result)
	out := make([]Measurement, len(jobs))
	for i, j := range jobs {
		base, ok := bases[j.Profile.Name]
		if !ok {
			base = run(opts.Config, j.Profile, nil)
			bases[j.Profile.Name] = base
		}
		pol, err := j.Factory.New()
		if err != nil {
			t.Fatal(err)
		}
		res := run(j.Config, j.Profile, pol)
		out[i] = Measurement{
			Benchmark: j.Profile.Name,
			Policy:    j.Factory.Name,
			Slowdown:  (res.WallTime / float64(res.Instructions)) / (base.WallTime / float64(base.Instructions)),
			Result:    res,
		}
	}
	return out
}

// TestTracedJobsRunAlone gives every Figure 4 job its own JSONL tracer. A
// run with a job-config Tracer never follows a shared core, so nothing is
// shared — pool.core_steps equals sim.thermal_steps exactly — and each
// trace is byte-identical to the trace of the job run on its own.
func TestTracedJobsRunAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty-four coupled runs")
	}
	opts := quarterOptions(t)
	opts.Benchmarks = opts.Benchmarks[:2]
	traced := func(jobs []Job) ([]Job, []*bytes.Buffer, []*obs.JSONL) {
		out := append([]Job(nil), jobs...)
		bufs := make([]*bytes.Buffer, len(out))
		sinks := make([]*obs.JSONL, len(out))
		for i := range out {
			bufs[i] = new(bytes.Buffer)
			sinks[i] = obs.NewJSONL(bufs[i])
			out[i].Config.Tracer = sinks[i]
		}
		return out, bufs, sinks
	}
	jobs := fig4Jobs(t, opts, true)
	soloJobs, soloBufs, _ := traced(jobs)
	want := solo(t, opts, soloJobs)

	sharedJobs, bufs, sinks := traced(jobs)
	o := opts
	o.Workers = 2
	o.Metrics = obs.NewRegistry()
	r, err := NewRunner(o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.RunJobs(context.Background(), sharedJobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("traced batch differs from solo runs:\n%+v\n%+v", got, want)
	}
	for i := range jobs {
		if err := sinks[i].Err(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufs[i].Bytes(), soloBufs[i].Bytes()) {
			t.Errorf("job %d (%s/%s): trace differs from its solo trace (%d vs %d bytes)",
				i, jobs[i].Profile.Name, jobs[i].Factory.Name, bufs[i].Len(), soloBufs[i].Len())
		}
	}
	if c, s := o.Metrics.Counter(obs.MetricPoolCoreSteps).Value(), o.Metrics.Counter(obs.MetricThermalSteps).Value(); c != s {
		t.Errorf("nothing shared, yet %s = %d and %s = %d", obs.MetricPoolCoreSteps, c, obs.MetricThermalSteps, s)
	}
}
