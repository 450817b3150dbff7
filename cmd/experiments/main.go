// Command experiments regenerates every table and figure from the paper's
// evaluation (§4.1 studies, Figures 3a, 3b, 4a, 4b, the §3 benchmark
// characterization, the §2 local-toggling comparison and the §6 figure of
// merit). Output is the same rows/series the paper reports;
// EXPERIMENTS.md records the comparison against the published results.
//
// Usage:
//
//	experiments [-insts N] [-bench name] [-workers N] [-v] [-quiet] [id ...]
//
// where id is one of: bench, 3a, 3a-ideal, 3b, 4a, 4b, steps, vfloor,
// cross, local, merit, all. Default: all. Every wanted section but merit
// is declared on one experiments.Plan and runs as one batch, so each
// benchmark is warmed once; the sections print, in the order above, when
// that batch ends, and merit's cpu-only studies run after it.
// Independent simulations fan out over -workers goroutines (default: one
// per CPU); results are identical for any worker count, so -workers only
// changes wall-clock time. Use -insts to scale the per-run instruction
// budget. Interrupting (Ctrl-C) cancels outstanding simulations promptly.
//
// Observability: progress (N/M jobs with ETA) goes to stderr at Info
// level; -v adds a Debug line per simulation, -quiet silences both. A
// metrics summary (runs, thermal steps, DVS switches, trigger residency,
// job latency) is printed to stderr at exit; -metrics-addr serves the
// same registry over HTTP while the sweep runs, as text at /metrics and
// Prometheus at /metrics.prom (shut down gracefully on exit or Ctrl-C).
// -cpuprofile/-memprofile/-runtime-metrics capture profiles. -out writes
// machine-readable figure results for dtmreport, -snapshot-out records a
// BENCH_<sha>.json performance snapshot, -stage-profile writes per-stage
// coupled-loop time attribution from a dedicated profiled run (stage
// fractions also folded into the snapshot), and any of these flags also
// writes a provenance manifest.json beside the artifact.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"hybriddtm/internal/core"
	"hybriddtm/internal/cpu"
	"hybriddtm/internal/experiments"
	"hybriddtm/internal/floorplan"
	"hybriddtm/internal/hotspot"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/report"
	"hybriddtm/internal/trace"
)

// sectionIDs are the section ids in print order. merit runs its cpu-only
// studies after the batch.
var sectionIDs = []string{"bench", "3a", "3a-ideal", "3b", "4a", "4b", "steps", "vfloor", "cross", "local", "merit"}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	insts := flag.Uint64("insts", 10_000_000, "instructions simulated per run")
	bench := flag.String("bench", "", "restrict to one benchmark (default: all nine)")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = one per CPU)")
	verbose := flag.Bool("v", false, "debug logging: one line per completed simulation")
	quiet := flag.Bool("quiet", false, "suppress progress logging and the metrics summary")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics over HTTP on this address (e.g. localhost:9090, or :0 for an ephemeral port)")
	out := flag.String("out", "", "write machine-readable figure results JSON to this file (input for dtmreport)")
	snapshotOut := flag.String("snapshot-out", "", "write a BENCH_<sha>.json perf snapshot into this directory (or to this exact path when it ends in .json)")
	stageProfile := flag.String("stage-profile", "", "write per-stage coupled-loop attribution JSON to this file (dedicated profiled run after the sweep, so gated perf metrics are unaffected)")
	var prof obs.ProfileFlags
	prof.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer stopProf() //nolint:errcheck // reported via the explicit call below

	ids := flag.Args()
	if len(ids) == 0 {
		ids = []string{"all"}
	}
	want := map[string]bool{}
	for _, id := range ids {
		if id == "all" {
			for _, x := range sectionIDs {
				want[x] = true
			}
			continue
		}
		want[id] = true
	}

	opts := experiments.DefaultOptions()
	opts.Instructions = *insts
	opts.Workers = *workers
	if *bench != "" {
		p, ok := trace.ByName(*bench)
		if !ok {
			return fmt.Errorf("unknown benchmark %q (have %s)", *bench,
				strings.Join(trace.BenchmarkNames(), ", "))
		}
		opts.Benchmarks = []trace.Profile{p}
	}
	if !*quiet {
		level := slog.LevelInfo
		if *verbose {
			level = slog.LevelDebug
		}
		opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	}
	reg := obs.NewRegistry()
	opts.Metrics = reg
	if *metricsAddr != "" {
		addr, stopServe, err := obs.Serve(ctx, *metricsAddr, reg)
		if err != nil {
			return err
		}
		defer stopServe() //nolint:errcheck // best-effort shutdown
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", addr)
	}

	r, err := experiments.NewRunner(opts)
	if err != nil {
		return err
	}
	start := time.Now() // wall-clock suite duration for the run manifest
	doc := report.NewResults("experiments")

	// Every wanted section declares its rows on one plan, which runs as one
	// batch; the sections print in sectionIDs order once it ends.
	plan := experiments.NewPlan(r)
	declared := make(map[string][]fmt.Stringer)
	for _, id := range sectionIDs {
		if !want[id] {
			continue
		}
		switch id {
		case "bench":
			declared[id] = []fmt.Stringer{plan.Characterise()}
		case "3a", "3a-ideal":
			declared[id] = []fmt.Stringer{plan.Fig3a(id == "3a")}
		case "3b":
			declared[id] = []fmt.Stringer{plan.Fig3b()}
		case "4a", "4b":
			declared[id] = []fmt.Stringer{plan.Fig4(id == "4a")}
		case "steps":
			declared[id] = []fmt.Stringer{plan.StepSizeStudy(true), plan.StepSizeStudy(false)}
		case "vfloor":
			declared[id] = []fmt.Stringer{plan.VoltageFloor()}
		case "cross":
			declared[id] = []fmt.Stringer{plan.CrossoverInvariance()}
		case "local":
			declared[id] = []fmt.Stringer{plan.LocalVsFG()}
		}
	}
	if err := plan.Run(ctx); err != nil {
		return err
	}
	for _, id := range sectionIDs {
		res, ok := declared[id]
		if !ok {
			continue
		}
		fmt.Printf("==== %s ====\n", id)
		for _, x := range res {
			fmt.Println(x)
			switch f := x.(type) {
			case *experiments.Fig3aResult:
				doc.AddFig3a(*f)
			case *experiments.Fig4Result:
				doc.AddFig4(*f)
			}
		}
	}
	if want["merit"] {
		fmt.Println("==== merit ====")
		names := make([]string, 0, 3)
		for _, name := range []string{"gzip", "gcc", "art"} {
			if *bench != "" && name != *bench {
				continue
			}
			names = append(names, name)
		}
		results, err := experiments.MeritStudies(ctx, opts, names)
		if err != nil {
			return err
		}
		for _, res := range results {
			fmt.Println(res)
		}
	}
	elapsed := time.Since(start) // wall-clock suite duration for the run manifest
	var outputs []string
	if *out != "" {
		if err := doc.WriteFile(*out); err != nil {
			return err
		}
		outputs = append(outputs, *out)
	}
	// The stage profile comes from a dedicated run AFTER elapsed is frozen
	// (like measureThermalCellsPerSec) so the gated sim.insts_per_sec is
	// never contaminated by profiler-on cost.
	var stageDoc *obs.StageProfile
	if *stageProfile != "" {
		sd, err := runStageProfile(ctx, opts, *insts)
		if err != nil {
			return err
		}
		if err := sd.WriteFile(*stageProfile); err != nil {
			return err
		}
		outputs = append(outputs, *stageProfile)
		stageDoc = &sd
	}
	if *snapshotOut != "" {
		snap := obs.CaptureBench(reg, elapsed, r.Workers(), start)
		cellsPerSec, err := measureThermalCellsPerSec()
		if err != nil {
			return err
		}
		snap.Add("thermal.cells_per_sec", "cells/s", cellsPerSec, obs.BetterHigher)
		cpuInstsPerSec, err := measureCPUInstsPerSec()
		if err != nil {
			return err
		}
		snap.Add("cpu.insts_per_sec", "insts/s", cpuInstsPerSec, obs.BetterHigher)
		if stageDoc != nil {
			// Coarse attribution trajectory: BENCH_<sha>.json records how
			// the cpu/power/thermal/policy/trace split moves across commits.
			for _, g := range obs.StageGroups() {
				snap.Add("sim.stage."+g+"_frac", "frac", stageDoc.GroupFrac(g), obs.BetterLower)
			}
		}
		path := *snapshotOut
		if strings.HasSuffix(path, ".json") {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
		} else {
			if err := os.MkdirAll(path, 0o755); err != nil {
				return err
			}
			path = filepath.Join(path, obs.BenchFileName(snap.GitSHA))
		}
		if err := snap.WriteFile(path); err != nil {
			return err
		}
		outputs = append(outputs, path)
	}
	if len(outputs) > 0 {
		names := make([]string, 0, len(opts.Benchmarks))
		for _, b := range opts.Benchmarks {
			names = append(names, b.Name)
		}
		m, err := report.BuildManifest("experiments", os.Args[1:], start, opts.Config, names, r.Workers(), outputs)
		if err != nil {
			return err
		}
		if _, err := report.WriteManifestBeside(m, elapsed); err != nil {
			return err
		}
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr)
		if err := reg.WriteSummary(os.Stderr); err != nil {
			return err
		}
	}
	return stopProf()
}

// runStageProfile runs one coupled simulation (the -bench selection, or
// bzip2 — the hottest benchmark — by default) under Hyb with the
// StageProfiler attached and returns the frozen attribution document.
func runStageProfile(ctx context.Context, opts experiments.Options, insts uint64) (obs.StageProfile, error) {
	prof, ok := trace.ByName("bzip2")
	if len(opts.Benchmarks) == 1 {
		prof, ok = opts.Benchmarks[0], true
	}
	if !ok {
		return obs.StageProfile{}, fmt.Errorf("bzip2 profile missing")
	}
	cfg := opts.Config
	factory, err := experiments.PolicyByName(&cfg, "hyb", 1.0/3, 5)
	if err != nil {
		return obs.StageProfile{}, err
	}
	pol, err := factory.New()
	if err != nil {
		return obs.StageProfile{}, err
	}
	sp := obs.NewStageProfiler()
	cfg.Profiler = sp
	sim, err := core.New(cfg, prof, pol)
	if err != nil {
		return obs.StageProfile{}, err
	}
	if _, err := sim.RunContext(ctx, insts); err != nil {
		return obs.StageProfile{}, err
	}
	return sp.Profile("experiments", prof.Name, factory.Name), nil
}

// measureCPUInstsPerSec times the standalone pipeline micro-workload the
// perf-snapshot job gates alongside sim.insts_per_sec: the gzip suite
// profile run through the batched kernels in thermal-step-sized chunks,
// isolating the cpu model from the power/thermal/policy stages. A warmup
// run (excluded) trains the caches and branch predictor so the timed
// window measures steady-state throughput.
func measureCPUInstsPerSec() (float64, error) {
	prof, ok := trace.ByName("gzip")
	if !ok {
		return 0, fmt.Errorf("gzip profile missing")
	}
	g, err := trace.NewGenerator(prof)
	if err != nil {
		return 0, err
	}
	c, err := cpu.New(cpu.DefaultConfig(), g)
	if err != nil {
		return 0, err
	}
	if _, err := c.Run(2_000_000, 0, nil); err != nil {
		return 0, err
	}
	const cycles, chunk = 10_000_000, 10_000
	var act cpu.Activity
	begin := time.Now() // wall-clock timing of the perf micro-workload
	for done := 0; done < cycles; done += chunk {
		if _, err := c.Run(chunk, 0, &act); err != nil {
			return 0, err
		}
	}
	secs := time.Since(begin).Seconds() // wall-clock timing of the perf micro-workload
	if secs <= 0 {
		return 0, nil
	}
	return float64(act.Committed) / secs, nil
}

// measureThermalCellsPerSec times the grid thermal micro-workload that the
// perf-snapshot job gates alongside sim.insts_per_sec: repeated 16×16 EV6
// grid steady-state solves, the same workload as BenchmarkGridThermal. The
// first solve (excluded) factors the conductance matrix; the timed
// iterations measure the cached sparse back-substitution path the grid
// studies actually run.
func measureThermalCellsPerSec() (float64, error) {
	fp := floorplan.EV6()
	g, err := hotspot.NewGridModel(fp, hotspot.DefaultPackage(), 16, 16)
	if err != nil {
		return 0, err
	}
	p := make([]float64, fp.NumBlocks())
	for j := range p {
		p[j] = 30 * fp.Block(j).Rect.Area() / fp.BlockArea()
	}
	dst := make([]float64, g.NumCells())
	if err := g.SteadyStateInto(dst, p); err != nil { // warm the factorization
		return 0, err
	}
	const iters = 2000
	begin := time.Now() // wall-clock timing of the perf micro-workload
	for i := 0; i < iters; i++ {
		if err := g.SteadyStateInto(dst, p); err != nil {
			return 0, err
		}
	}
	secs := time.Since(begin).Seconds() // wall-clock timing of the perf micro-workload
	if secs <= 0 {
		return 0, nil
	}
	return float64(iters*g.NumCells()) / secs, nil
}
