// Package experiments defines the paper's evaluation as figures declared
// on a Plan: every figure and table in §5 (and the studies reported in the
// §4.1 text) adds its rows to a plan, and one plan runs any set of them as
// one batch, either from the cmd/experiments tool or from the benchmark
// harness in the repository root. DESIGN.md carries the experiment index.
//
// Every (benchmark, policy, config) simulation is independent — runs share
// no mutable state, except that a benchmark's runs follow one cpu core,
// advanced for all of them at once, while their policies act alike (see
// share.go) — so the package executes them on a bounded worker pool (see
// pool.go). Results are reassembled in submission order,
// which makes parallel runs byte-identical to serial runs; Options.Workers
// only changes wall-clock time, never output.
package experiments

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"hybriddtm"
	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/trace"
)

// Options controls experiment scale. The paper simulates 500 M instructions
// per benchmark; Instructions scales that down for practical runtimes (the
// thermal and DTM dynamics settle within a few milliseconds, i.e. tens of
// millions of instructions).
type Options struct {
	Instructions uint64
	Benchmarks   []trace.Profile
	Config       core.Config

	// Logger, when non-nil, receives structured logs: per-run completions
	// at Debug ("run"), pool progress with ETA at Info ("progress").
	// slog handlers serialize concurrent writes, so one logger is safe
	// across the worker pool.
	Logger *slog.Logger

	// Metrics, when non-nil, aggregates observability counters across
	// every simulation the runner executes (thermal steps, DVS switches,
	// trigger residency, per-job latency, ...). Each run gets its own
	// obs.MetricsTracer feeding this shared registry, chained after any
	// Tracer already present on the job's Config.
	Metrics *obs.Registry

	// Workers bounds how many goroutines simulate at once. Zero means
	// runtime.GOMAXPROCS(0); 1 reproduces serial execution. Results are
	// identical for every setting. Every simulation a Runner makes —
	// jobs and baselines alike — runs in a RunJobs batch, where a worker
	// may step several runs of one benchmark on one shared core while
	// their policies act alike (see share.go), so a worker is not always
	// one run; at most Workers + 1 cpu cores are alive at once per batch.
	// A Config.Tracer serves one run at a time, so NewRunner accepts one
	// only with Workers set to 1.
	Workers int

	// CacheDir, when set, is the directory of the result cache (see
	// cache.go): a run whose result is there is not simulated, and every
	// result simulated is stored there.
	CacheDir string
}

// DefaultOptions runs the full nine-benchmark suite at 10 M instructions
// per run, with one worker per available CPU.
func DefaultOptions() Options {
	return Options{
		Instructions: 10_000_000,
		Benchmarks:   trace.Benchmarks(),
		Config:       core.DefaultConfig(),
	}
}

// PolicyFactory builds a fresh policy instance per run (policies are
// stateful, so every simulation needs its own). New must be safe to call
// from multiple goroutines.
type PolicyFactory struct {
	Name string
	New  func() (dtm.Policy, error)

	spec *policySpec // set by PolicyByName; nil keeps a job out of the result cache
}

// Standard policy parameters used across the evaluation.
const (
	// CrossoverGateStall is the fetch-gating fraction at the ILP/DVS
	// crossover for DVS with switch stalls: duty cycle 3, one fetch cycle
	// in three gated — the same value the paper finds, and where this
	// repository's Figure 3a sweep puts its minimum. The valley around it
	// is flat (the knee is what matters), which is the insensitivity that
	// lets the paper eliminate feedback control.
	CrossoverGateStall = 1.0 / 3
	// CrossoverGateIdeal is the crossover for idealized stall-free DVS:
	// duty cycle 20, the gentlest setting, where ILP hides nearly all of
	// the gating (§5.1).
	CrossoverGateIdeal = 1.0 / 20
	// FGMaxGate is the duty stand-alone fetch gating must be allowed to
	// reach to eliminate all violations (two of three cycles gated, §5.1).
	FGMaxGate = 2.0 / 3
	// HybDelta is the gap between Hyb's two comparator thresholds (°C).
	HybDelta = 0.4
	// HybGateStall is the feedback-free hybrid's fixed fetch-gating level
	// for DVS-stall: duty 5, one step milder than the controlled hybrid's
	// crossover. A fixed (uncontrolled) response engages at full depth for
	// whole stress episodes, so it must sit where ILP still hides it; the
	// adaptive PI-Hyb can afford to cap one step deeper because it only
	// reaches the cap transiently. The sweep behind this choice is in
	// EXPERIMENTS.md.
	HybGateStall = 1.0 / 5
)

// crossoverGate returns the tuned hybrid crossover for the DVS variant.
func crossoverGate(stall bool) float64 {
	if stall {
		return CrossoverGateStall
	}
	return CrossoverGateIdeal
}

// FGPolicy returns the stand-alone PI-controlled fetch-gating factory.
func FGPolicy(cfg core.Config) PolicyFactory { return named(cfg, "fg", 0, "FG") }

// DVSPolicy returns the binary-DVS factory (§4.1's recommended scheme).
func DVSPolicy(cfg core.Config) PolicyFactory { return named(cfg, "dvs", 0, "DVS") }

// PIHybPolicy returns the feedback-controlled hybrid factory tuned for the
// given DVS variant.
func PIHybPolicy(cfg core.Config, stall bool) PolicyFactory {
	return named(cfg, "pi-hyb", crossoverGate(stall), "PI-Hyb")
}

// HybPolicy returns the feedback-free hybrid factory tuned for the given
// DVS variant.
func HybPolicy(cfg core.Config, stall bool) PolicyFactory {
	gate := HybGateStall
	if !stall {
		gate = CrossoverGateIdeal
	}
	return named(cfg, "hyb", gate, "Hyb")
}

// Runner executes simulations with per-benchmark baseline caching: the
// no-DTM run of each benchmark is shared by every slowdown measurement.
// A Runner is safe for concurrent use; the baseline cache is singleflight
// (concurrent requests for the same benchmark trigger exactly one
// simulation, everyone else waits for it). Every simulation runs in a
// RunJobs batch, within which the runs of a benchmark also share its warm
// state and, while their policies act alike, its cpu core (see share.go).
type Runner struct {
	opts    Options
	workers int
	log     *slog.Logger  // nil disables logging
	metrics *obs.Registry // nil disables metric aggregation

	cache   *resultCache // nil disables the result cache
	sources string       // source fingerprint in every cache key

	mu        sync.Mutex
	baselines map[string]*baselineEntry
}

// baselineEntry is one in-flight or completed baseline computation. done is
// closed when res/err are final.
type baselineEntry struct {
	done chan struct{}
	res  core.Result
	err  error
}

// NewRunner builds a runner.
func NewRunner(opts Options) (*Runner, error) {
	if opts.Instructions == 0 {
		return nil, fmt.Errorf("experiments: zero instruction budget")
	}
	if len(opts.Benchmarks) == 0 {
		return nil, fmt.Errorf("experiments: no benchmarks")
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("experiments: negative worker count %d", opts.Workers)
	}
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if opts.Config.Tracer != nil && opts.Workers != 1 {
		return nil, fmt.Errorf("experiments: a Config.Tracer serves one run at a time, so it needs Workers: 1 (have %d)", opts.Workers)
	}
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &Runner{
		opts:      opts,
		workers:   workers,
		log:       opts.Logger,
		metrics:   opts.Metrics,
		baselines: make(map[string]*baselineEntry),
	}
	if opts.CacheDir != "" {
		var err error
		if r.cache, err = openCache(opts.CacheDir); err != nil {
			return nil, err
		}
		if r.sources, err = hybriddtm.SourceFingerprint(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Options returns the runner's options.
func (r *Runner) Options() Options { return r.opts }

// Workers returns the effective worker-pool size.
func (r *Runner) Workers() int { return r.workers }

// BaselineContext returns the cached no-DTM result for a benchmark. It
// waits for a cached or in-flight entry, and otherwise runs the baseline
// as a batch of its own (see RunJobs), so concurrent callers for the same
// benchmark share one simulation. A baseline whose batch fails — a
// canceled one included — is not cached: a later call computes it afresh.
func (r *Runner) BaselineContext(ctx context.Context, prof trace.Profile) (core.Result, error) {
	for {
		r.mu.Lock()
		e, ok := r.baselines[prof.Name]
		r.mu.Unlock()
		if !ok {
			// plan looks again under the lock: if another caller got there
			// first, this batch is empty and the loop waits on its entry.
			if _, _, err := r.runJobs(ctx, nil, []trace.Profile{prof}); err != nil {
				return core.Result{}, err
			}
			continue
		}
		select {
		case <-e.done:
			if e.err != nil {
				// The owning batch failed or was canceled; retry under our
				// own context.
				continue
			}
			return e.res, nil
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
	}
}

// ranBaseline records a finished baseline run.
func (r *Runner) ranBaseline(prof trace.Profile, res core.Result) {
	if r.metrics != nil {
		r.metrics.Counter(obs.MetricInstructions).Add(int64(res.Instructions))
	}
	if r.log != nil {
		r.log.Debug("run", "bench", prof.Name, "policy", "none", "maxT", res.MaxTemp)
	}
}

// instrument chains a per-run metrics tracer onto cfg when the runner has
// a shared registry. The registry is the concurrency-safe aggregation
// point; the tracer instance is fresh per run, as core.Config requires.
func (r *Runner) instrument(cfg core.Config) core.Config {
	if r.metrics != nil {
		cfg.Tracer = obs.Combine(cfg.Tracer, obs.NewMetricsTracer(r.metrics))
	}
	return cfg
}

// Measurement is one benchmark × policy slowdown result.
type Measurement struct {
	Benchmark string
	Policy    string
	Slowdown  float64 // execution time per instruction relative to no DTM
	Result    core.Result
}

// ranJob records a finished job run. Its wall-clock latency since start
// feeds the pool.job_s histogram when a registry is attached — latency is
// host time, so it never influences Measurements.
func (r *Runner) ranJob(job Job, res core.Result, start time.Time) {
	if r.metrics != nil {
		r.metrics.Counter(obs.MetricPoolJobs).Inc()
		r.metrics.Counter(obs.MetricInstructions).Add(int64(res.Instructions))
		// host-side job latency metric; never feeds Measurements
		r.metrics.Histogram(obs.MetricPoolJobSeconds).Observe(time.Since(start).Seconds())
	}
	if r.log != nil {
		r.log.Debug("run", "bench", job.Profile.Name, "policy", job.Factory.Name,
			"maxT", res.MaxTemp, "violated", res.Violated())
	}
}

// measure normalizes a job's result against its benchmark's baseline,
// resolved through the singleflight cache.
func (r *Runner) measure(ctx context.Context, job Job, res core.Result) (Measurement, error) {
	base, err := r.BaselineContext(ctx, job.Profile)
	if err != nil {
		return Measurement{}, err
	}
	basePerInst := base.WallTime / float64(base.Instructions)
	perInst := res.WallTime / float64(res.Instructions)
	return Measurement{
		Benchmark: job.Profile.Name,
		Policy:    job.Factory.Name,
		Slowdown:  perInst / basePerInst,
		Result:    res,
	}, nil
}

// SuiteContext runs every benchmark under the factory on the worker pool
// and returns measurements in benchmark order.
func (r *Runner) SuiteContext(ctx context.Context, cfg core.Config, factory PolicyFactory) ([]Measurement, error) {
	p := NewPlan(r)
	p.row(cfg, factory)
	return r.RunJobs(ctx, p.jobs())
}

// Slowdowns extracts the slowdown column.
func Slowdowns(ms []Measurement) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.Slowdown
	}
	return out
}

// AnyViolation reports whether any measurement had a thermal emergency.
func AnyViolation(ms []Measurement) bool {
	for _, m := range ms {
		if m.Result.Violated() {
			return true
		}
	}
	return false
}

// ArgMin returns the index of the smallest value.
func ArgMin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
