// Command dtmsim runs one or more benchmarks under one DTM policy and
// prints run summaries — the basic workhorse for exploring the simulator.
//
// Usage:
//
//	dtmsim -bench gzip -policy hyb [-insts N] [-ideal] [-gate G] [-vmin V]
//	dtmsim -bench gzip,bzip2,art -policy dvs -workers 4
//	dtmsim -bench all -policy pi-hyb
//	dtmsim -bench gzip -policy hyb -trace-out run.jsonl -metrics
//
// Policies: none, dvs, dvs-pi, fg, fg-fixed, clockgate, pi-hyb, hyb,
// local, proactive-dvs. With several benchmarks (comma-separated, or
// "all") the simulations fan out over -workers goroutines (default: one
// per CPU) and a slowdown table is printed; results are identical for any
// worker count.
//
// Observability: -trace-out writes the run's event stream (JSON Lines;
// single-benchmark runs only), -out writes machine-readable results JSON
// for dtmreport, -stage-profile writes per-stage time attribution of the
// coupled loop (stageprofile.json, rendered by dtmreport; single-benchmark
// runs only), -metrics prints aggregate counters to stderr, -v/-quiet
// adjust logging, and -cpuprofile/-memprofile/-runtime-metrics capture
// profiles. Any invocation with an output flag also writes a provenance
// manifest.json beside its first artifact (tool, argv, config hash,
// environment).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"time"

	"hybriddtm/internal/core"
	"hybriddtm/internal/experiments"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/report"
	"hybriddtm/internal/stats"
	"hybriddtm/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dtmsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	bench := flag.String("bench", "gzip", "benchmark name, comma-separated list, or \"all\"")
	policy := flag.String("policy", "hyb", "DTM policy: none, dvs, dvs-pi, fg, fg-fixed, clockgate, pi-hyb, hyb, local, proactive-dvs")
	insts := flag.Uint64("insts", 10_000_000, "instructions to simulate")
	ideal := flag.Bool("ideal", false, "idealized DVS (no pipeline stall on switches)")
	gate := flag.Float64("gate", 1.0/3, "fixed fetch-gating fraction (fg-fixed, hyb, pi-hyb crossover)")
	vmin := flag.Float64("vmin", 0.85, "DVS low voltage as a fraction of nominal")
	steps := flag.Int("steps", 5, "DVS ladder steps for dvs-pi")
	workers := flag.Int("workers", 0, "concurrent simulations for multi-benchmark runs (0 = one per CPU)")
	traceOut := flag.String("trace-out", "", "write the event trace to this file (JSONL; single benchmark only)")
	out := flag.String("out", "", "write machine-readable results JSON to this file (input for dtmreport)")
	stageProfile := flag.String("stage-profile", "", "write per-stage time attribution JSON to this file (single benchmark only)")
	metrics := flag.Bool("metrics", false, "print aggregate simulation metrics to stderr at exit")
	verbose := flag.Bool("v", false, "debug logging: one line per completed simulation")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	var prof obs.ProfileFlags
	prof.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer stopProf() //nolint:errcheck // second call below reports the error

	profs, err := parseBenchmarks(*bench)
	if err != nil {
		return err
	}
	if *traceOut != "" && len(profs) != 1 {
		return fmt.Errorf("-trace-out records a single run; got %d benchmarks", len(profs))
	}
	if *stageProfile != "" && len(profs) != 1 {
		return fmt.Errorf("-stage-profile records a single run; got %d benchmarks", len(profs))
	}

	cfg := core.DefaultConfig()
	cfg.DVSStall = !*ideal
	cfg.VMinFrac = *vmin

	factory, err := experiments.PolicyByName(&cfg, *policy, *gate, *steps)
	if err != nil {
		return err
	}

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	start := time.Now()
	var ms []experiments.Measurement
	if len(profs) == 1 {
		ms, err = runOne(ctx, cfg, profs[0], factory, *insts, *traceOut, *stageProfile, reg)
	} else {
		ms, err = runSuite(ctx, cfg, profs, factory, *insts, *workers, logger(*verbose, *quiet), reg)
	}
	if err != nil {
		return err
	}
	if *out != "" {
		doc := report.NewResults("dtmsim")
		doc.AddRuns(ms)
		if err := doc.WriteFile(*out); err != nil {
			return err
		}
	}
	// Every invocation that leaves artifacts behind gets a provenance
	// manifest beside them.
	if outputs := nonEmpty(*traceOut, *out, *stageProfile); len(outputs) > 0 {
		names := make([]string, len(profs))
		for i, p := range profs {
			names[i] = p.Name
		}
		m, err := report.BuildManifest("dtmsim", os.Args[1:], start, cfg, names, *workers, outputs)
		if err != nil {
			return err
		}
		if _, err := report.WriteManifestBeside(m, time.Since(start)); err != nil {
			return err
		}
	}
	if reg != nil {
		if err := reg.WriteSummary(os.Stderr); err != nil {
			return err
		}
	}
	return stopProf()
}

// nonEmpty filters out unset flag values.
func nonEmpty(paths ...string) []string {
	out := make([]string, 0, len(paths))
	for _, p := range paths {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// logger builds the stderr slog logger for the chosen verbosity: Info
// (pool progress) by default, Debug (every run) with -v, none with -quiet.
func logger(verbose, quiet bool) *slog.Logger {
	if quiet {
		return nil
	}
	level := slog.LevelInfo
	if verbose {
		level = slog.LevelDebug
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
}

// openTraceSink opens path for a JSON Lines trace. The returned close
// function reports deferred serialization errors.
func openTraceSink(path string) (obs.Tracer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	sink := obs.NewJSONL(f)
	closeFn := func() error {
		if err := sink.Err(); err != nil {
			f.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
		return f.Close()
	}
	return sink, closeFn, nil
}

// parseBenchmarks resolves a benchmark flag value ("gzip", "gzip,art" or
// "all") into profiles.
func parseBenchmarks(arg string) ([]trace.Profile, error) {
	if arg == "all" {
		return trace.Benchmarks(), nil
	}
	names := strings.Split(arg, ",")
	profs := make([]trace.Profile, 0, len(names))
	for _, name := range names {
		name = strings.TrimSpace(name)
		prof, ok := trace.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q (have %s)", name,
				strings.Join(trace.BenchmarkNames(), ", "))
		}
		profs = append(profs, prof)
	}
	return profs, nil
}

// runOne prints the detailed single-benchmark summary, optionally tracing
// the run to a sink and folding its events into a metrics registry. The
// returned measurement carries the raw result; slowdown is zero because a
// single run has no baseline to normalize against.
func runOne(ctx context.Context, cfg core.Config, prof trace.Profile, factory experiments.PolicyFactory, insts uint64, traceOut, stageProfile string, reg *obs.Registry) (ms []experiments.Measurement, err error) {
	pol, err := factory.New()
	if err != nil {
		return nil, err
	}
	var sp *obs.StageProfiler
	if stageProfile != "" {
		sp = obs.NewStageProfiler()
		cfg.Profiler = sp
	}
	if traceOut != "" {
		sink, closeSink, cerr := openTraceSink(traceOut)
		if cerr != nil {
			return nil, cerr
		}
		// Close even when the run fails: RunContext's deferred End has
		// already flushed whatever the sink saw, which is exactly what a
		// post-mortem needs.
		defer func() {
			if cerr := closeSink(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		cfg.Tracer = obs.Combine(cfg.Tracer, sink)
	}
	if reg != nil {
		cfg.Tracer = obs.Combine(cfg.Tracer, obs.NewMetricsTracer(reg))
	}
	sim, err := core.New(cfg, prof, pol)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunContext(ctx, insts)
	if err != nil {
		return nil, err
	}
	if sp != nil {
		doc := sp.Profile("dtmsim", res.Benchmark, res.Policy)
		if err := doc.WriteFile(stageProfile); err != nil {
			return nil, err
		}
		if reg != nil {
			sp.Publish(reg)
		}
	}

	fmt.Printf("benchmark        %s\n", res.Benchmark)
	fmt.Printf("policy           %s\n", res.Policy)
	fmt.Printf("instructions     %d\n", res.Instructions)
	fmt.Printf("cycles           %d\n", res.Cycles)
	fmt.Printf("wall time        %.3f ms\n", res.WallTime*1e3)
	fmt.Printf("IPC              %.3f\n", res.AvgIPC)
	fmt.Printf("avg power        %.1f W\n", res.AvgPower)
	fmt.Printf("energy           %.3f J\n", res.EnergyJ)
	fmt.Printf("max temp         %.2f °C (block %s)\n", res.MaxTemp, res.HottestBlock)
	fmt.Printf("above trigger    %.1f %% of time\n", 100*res.TimeAboveTrigger/res.WallTime)
	fmt.Printf("emergencies      %.3f ms above %.0f °C\n", res.EmergencyTime*1e3, cfg.EmergencyThreshold)
	fmt.Printf("avg gate         %.3f\n", res.AvgGate)
	fmt.Printf("time at low V    %.1f %%\n", 100*res.TimeAtLowV/res.WallTime)
	fmt.Printf("DVS switches     %d\n", res.DVSSwitches)
	if res.ClockStopTime > 0 {
		fmt.Printf("clock stopped    %.1f %%\n", 100*res.ClockStopTime/res.WallTime)
	}
	return []experiments.Measurement{{Benchmark: res.Benchmark, Policy: res.Policy, Result: res}}, nil
}

// runSuite fans the benchmarks out over the experiment engine's worker
// pool and prints a slowdown table (normalized against each benchmark's
// no-DTM baseline).
func runSuite(ctx context.Context, cfg core.Config, profs []trace.Profile, factory experiments.PolicyFactory, insts uint64, workers int, log *slog.Logger, reg *obs.Registry) ([]experiments.Measurement, error) {
	r, err := experiments.NewRunner(experiments.Options{
		Instructions: insts,
		Benchmarks:   profs,
		Config:       cfg,
		Workers:      workers,
		Logger:       log,
		Metrics:      reg,
	})
	if err != nil {
		return nil, err
	}
	ms, err := r.SuiteContext(ctx, cfg, factory)
	if err != nil {
		return nil, err
	}
	fmt.Printf("policy %s over %d benchmarks (%d instructions each, %d workers):\n\n",
		factory.Name, len(profs), insts, r.Workers())
	fmt.Printf("%-9s  %8s  %8s  %10s  %s\n", "bench", "slowdown", "maxT/°C", "violations", "DVS switches")
	for _, m := range ms {
		v := ""
		if m.Result.Violated() {
			v = "VIOLATED"
		}
		fmt.Printf("%-9s  %8.4f  %8.2f  %10s  %d\n",
			m.Benchmark, m.Slowdown, m.Result.MaxTemp, v, m.Result.DVSSwitches)
	}
	mean, err := stats.MeanChecked(experiments.Slowdowns(ms))
	if err != nil {
		return nil, err
	}
	fmt.Printf("%-9s  %8.4f\n", "MEAN", mean)
	return ms, nil
}
