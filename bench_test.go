// Package hybriddtm's root benchmark harness: one testing.B benchmark per
// table/figure of the paper's evaluation (reported as custom metrics), the
// ablation benches for the design choices called out in DESIGN.md, and
// microbenchmarks of the substrates. Figure benches run the real experiment
// pipeline at a reduced instruction budget — the paper-scale runs are
// produced by cmd/experiments; these exist so `go test -bench` regenerates
// every row/series shape quickly and reproducibly.
//
// Run a single figure with e.g.
//
//	go test -bench=Fig4a -benchtime=1x .
package hybriddtm

import (
	"context"
	"fmt"
	"io"
	"testing"

	"hybriddtm/internal/core"
	"hybriddtm/internal/cpu"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/dvfs"
	"hybriddtm/internal/experiments"
	"hybriddtm/internal/floorplan"
	"hybriddtm/internal/hotspot"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/power"
	"hybriddtm/internal/stats"
	"hybriddtm/internal/trace"
)

// benchInstructions keeps full-suite sweeps tractable on one core; shapes
// are stable at this scale even though absolute slowdowns carry a little
// more noise than the cmd/experiments defaults.
const benchInstructions = 1_500_000

func benchOptions() experiments.Options {
	opts := experiments.DefaultOptions()
	opts.Instructions = benchInstructions
	cfg := core.DefaultConfig()
	cfg.WarmupCycles = 1_000_000
	cfg.InitCycles = 500_000
	cfg.SettleInstructions = 1_500_000
	opts.Config = cfg
	return opts
}

func newRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	r, err := experiments.NewRunner(benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// newPlan starts a plan on a fresh runner.
func newPlan(b *testing.B) *experiments.Plan {
	b.Helper()
	return experiments.NewPlan(newRunner(b))
}

// runPlan runs a plan's batch.
func runPlan(b *testing.B, p *experiments.Plan) {
	b.Helper()
	if err := p.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCharacterise regenerates the §3 benchmark characterization
// table (no-DTM IPC, power, peak temperature per benchmark).
func BenchmarkCharacterise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := newPlan(b)
		rows := p.Characterise()
		runPlan(b, p)
		var maxT float64
		for _, row := range *rows {
			if row.MaxTemp > maxT {
				maxT = row.MaxTemp
			}
		}
		b.ReportMetric(maxT, "maxTempC")
	}
}

// BenchmarkFig3a regenerates Figure 3a (PI-Hyb slowdown vs. max duty
// cycle, DVS-stall) and reports the best duty cycle and its slowdown.
func BenchmarkFig3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := newPlan(b)
		res := p.Fig3a(true)
		runPlan(b, p)
		best := res.BestDuty()
		b.ReportMetric(best, "bestDuty")
		for _, row := range res.Rows {
			if row.DutyCycle == best {
				b.ReportMetric(row.MeanSlowdown, "slowdown")
			}
		}
	}
}

// BenchmarkFig3aIdeal is Figure 3a for idealized (stall-free) DVS, where
// only the mildest gating is justified.
func BenchmarkFig3aIdeal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := newPlan(b)
		res := p.Fig3a(false)
		runPlan(b, p)
		b.ReportMetric(res.BestDuty(), "bestDuty")
	}
}

// BenchmarkFig3b regenerates Figure 3b (stand-alone fixed fetch gating vs.
// duty cycle, with the DVS overhead reference line).
func BenchmarkFig3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := newPlan(b)
		res := p.Fig3b()
		runPlan(b, p)
		b.ReportMetric(res.DVSSlowdown, "dvsSlowdown")
		// The harshest FG setting's slowdown: the linear-regime endpoint.
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.MeanSlowdown, "harshFGSlowdown")
	}
}

func reportFig4(b *testing.B, res experiments.Fig4Result) {
	b.Helper()
	for _, p := range experiments.Fig4PolicyOrder {
		if res.Violations[p] {
			b.Errorf("policy %s had thermal violations", p)
		}
	}
	b.ReportMetric(res.Mean("FG"), "fg")
	b.ReportMetric(res.Mean("DVS"), "dvs")
	b.ReportMetric(res.Mean("PI-Hyb"), "pihyb")
	b.ReportMetric(res.Mean("Hyb"), "hyb")
	b.ReportMetric(100*res.OverheadReduction("Hyb"), "hybOverheadCut%")
}

// BenchmarkFig4a regenerates Figure 4a (policy comparison, DVS-stall): the
// headline result — hybrids cut a large share of DVS's DTM overhead.
func BenchmarkFig4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := newPlan(b)
		res := p.Fig4(true)
		runPlan(b, p)
		reportFig4(b, *res)
	}
}

// BenchmarkFig4b regenerates Figure 4b (policy comparison, DVS-ideal).
func BenchmarkFig4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := newPlan(b)
		res := p.Fig4(false)
		runPlan(b, p)
		reportFig4(b, *res)
	}
}

// BenchmarkStepSize regenerates the §4.1 step-size study: the spread
// between binary and continuous DVS should be small.
func BenchmarkStepSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := newPlan(b)
		stall, ideal := p.StepSizeStudy(true), p.StepSizeStudy(false)
		runPlan(b, p)
		b.ReportMetric(100*stall.MaxSpread(), "stallSpread%")
		b.ReportMetric(100*ideal.MaxSpread(), "idealSpread%")
	}
}

// BenchmarkVoltageFloor regenerates the §4.1 low-voltage search.
func BenchmarkVoltageFloor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := newPlan(b)
		res := p.VoltageFloor()
		runPlan(b, p)
		b.ReportMetric(100*res.Floor(), "floor%")
	}
}

// BenchmarkCrossover regenerates the §5.1 crossover-invariance study.
func BenchmarkCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := newPlan(b)
		res := p.CrossoverInvariance()
		runPlan(b, p)
		duties := map[float64]bool{}
		for _, d := range res.BestDutyPerVMin {
			duties[d] = true
		}
		b.ReportMetric(float64(len(duties)), "distinctBestDuties")
		b.ReportMetric(res.BestDutyHyb, "hybBestDuty")
	}
}

// benchSuiteWorkers runs the nine-benchmark Hyb suite (baseline + policy
// run per benchmark, 18 simulations) at the given worker-pool size. The
// Workers1/Workers4 pair measures the parallel experiment engine's
// speedup; results are byte-identical across worker counts (asserted by
// TestFig4ParallelDeterminism), so only wall-clock changes.
func benchSuiteWorkers(b *testing.B, workers int) {
	opts := benchOptions()
	opts.Workers = workers
	for i := 0; i < b.N; i++ {
		r, err := experiments.NewRunner(opts)
		if err != nil {
			b.Fatal(err)
		}
		ms, err := r.SuiteContext(context.Background(), opts.Config, experiments.HybPolicy(opts.Config, true))
		if err != nil {
			b.Fatal(err)
		}
		if len(ms) != len(opts.Benchmarks) {
			b.Fatalf("suite returned %d measurements", len(ms))
		}
	}
}

// BenchmarkSuiteWorkers1 is the serial reference for the suite speedup.
func BenchmarkSuiteWorkers1(b *testing.B) { benchSuiteWorkers(b, 1) }

// BenchmarkSuiteWorkers4 is the same suite on four workers; on a 4-core
// machine it completes the 18 independent simulations ≥2× faster.
func BenchmarkSuiteWorkers4(b *testing.B) { benchSuiteWorkers(b, 4) }

// --- Ablation benches (design choices called out in DESIGN.md) ----------

// BenchmarkAblationLeakage quantifies the temperature contribution of the
// leakage/temperature feedback loop by disabling it.
func BenchmarkAblationLeakage(b *testing.B) {
	prof, _ := trace.ByName("gzip")
	for i := 0; i < b.N; i++ {
		run := func(leak power.LeakageConfig) float64 {
			cfg := benchOptions().Config
			cfg.Leakage = leak
			sim, err := core.New(cfg, prof, nil)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run(benchInstructions)
			if err != nil {
				b.Fatal(err)
			}
			return res.MaxTemp
		}
		withLeak := run(power.DefaultLeakage())
		noLeak := run(power.LeakageConfig{TotalAtRef: 0, TRef: 85, Beta: 0})
		b.ReportMetric(withLeak-noLeak, "leakDeltaC")
	}
}

// BenchmarkAblationFGGain sweeps the fetch-gating integral gain to show
// the broad flat optimum DefaultFGGain sits in (the paper confirms its
// controller settings by exhaustive search).
func BenchmarkAblationFGGain(b *testing.B) {
	prof, _ := trace.ByName("crafty")
	for i := 0; i < b.N; i++ {
		cfg := benchOptions().Config
		base := func() core.Result {
			sim, err := core.New(cfg, prof, nil)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run(benchInstructions)
			if err != nil {
				b.Fatal(err)
			}
			return res
		}()
		basePerInst := base.WallTime / float64(base.Instructions)
		for _, gain := range []float64{150, 600, 2400} {
			pol, err := dtm.FetchGating(cfg.Trigger, gain, 2.0/3)
			if err != nil {
				b.Fatal(err)
			}
			sim, err := core.New(cfg, prof, pol)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run(benchInstructions)
			if err != nil {
				b.Fatal(err)
			}
			slow := res.WallTime / float64(res.Instructions) / basePerInst
			b.ReportMetric(slow, fmt.Sprintf("slowdown@ki%d", int(gain)))
		}
	}
}

// --- Substrate microbenchmarks ------------------------------------------

// BenchmarkCPUCycles measures raw simulation speed of the OoO core model
// in simulated cycles per second.
func BenchmarkCPUCycles(b *testing.B) {
	prof, _ := trace.ByName("gzip")
	gen, err := trace.NewGenerator(prof)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cpu.New(cpu.DefaultConfig(), gen)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Run(200_000, 0, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	const chunk = 100_000
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(chunk, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(chunk*b.N)/b.Elapsed().Seconds(), "simCycles/s")
}

// BenchmarkThermalStepBE measures one backward-Euler thermal step of the
// EV6 model (the per-10k-cycle cost of the coupled loop).
func BenchmarkThermalStepBE(b *testing.B) {
	fp := floorplan.EV6()
	m, err := hotspot.NewModel(fp, hotspot.DefaultPackage())
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, fp.NumBlocks())
	for j := range p {
		p[j] = 30 * fp.Block(j).Rect.Area() / fp.BlockArea()
	}
	if err := m.Init(p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(p, 3.33e-6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridModelBuild measures building a 32×32 grid model and its
// first steady-state solve, which factors the conductance matrix: the
// grid's share of thermal-validate's set-up.
func BenchmarkGridModelBuild(b *testing.B) {
	fp := floorplan.EV6()
	p := make([]float64, fp.NumBlocks())
	for j := range p {
		p[j] = 30 * fp.Block(j).Rect.Area() / fp.BlockArea()
	}
	for i := 0; i < b.N; i++ {
		g, err := hotspot.NewGridModel(fp, hotspot.DefaultPackage(), 32, 32)
		if err != nil {
			b.Fatal(err)
		}
		if err := g.Init(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGen measures instruction stream generation throughput.
func BenchmarkTraceGen(b *testing.B) {
	prof, _ := trace.ByName("gcc")
	gen, err := trace.NewGenerator(prof)
	if err != nil {
		b.Fatal(err)
	}
	var in trace.Inst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&in)
	}
}

// BenchmarkPowerCompute measures the per-interval power model evaluation.
func BenchmarkPowerCompute(b *testing.B) {
	fp := floorplan.EV6()
	tech := dvfs.Default130nm()
	pm, err := power.NewModel(fp, tech, power.EV6Spec(), power.DefaultLeakage())
	if err != nil {
		b.Fatal(err)
	}
	act := make([]float64, fp.NumBlocks())
	temps := make([]float64, fp.NumBlocks())
	for i := range act {
		act[i] = 0.4
		temps[i] = 80
	}
	dst := make([]float64, fp.NumBlocks())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pm.Compute(dst, act, 1, tech.VNominal, tech.FNominal, temps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoupledLoop measures the full coupled simulator (CPU + power +
// thermal + sensors + policy) in simulated instructions per second.
func BenchmarkCoupledLoop(b *testing.B) {
	prof, _ := trace.ByName("bzip2")
	cfg := benchOptions().Config
	ladder, err := dvfs.Binary(cfg.Tech, cfg.VMinFrac)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := dtm.Hyb(cfg.Trigger, 0.4, experiments.CrossoverGateStall, ladder)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := core.New(cfg, prof, pol)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Instructions)/b.Elapsed().Seconds(), "simInsts/s")
	}
}

// benchCoupled runs the BenchmarkCoupledLoop workload (bzip2 under Hyb,
// DVS-stall) with the given per-iteration tracer factory, so the
// Tracer* benches differ from the baseline only in the tracer.
func benchCoupled(b *testing.B, mkTracer func() obs.Tracer) {
	b.Helper()
	prof, _ := trace.ByName("bzip2")
	cfg := benchOptions().Config
	ladder, err := dvfs.Binary(cfg.Tech, cfg.VMinFrac)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := dtm.Hyb(cfg.Trigger, 0.4, experiments.CrossoverGateStall, ladder)
		if err != nil {
			b.Fatal(err)
		}
		c := cfg
		if mkTracer != nil {
			c.Tracer = mkTracer()
		}
		sim, err := core.New(c, prof, pol)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Instructions)/b.Elapsed().Seconds(), "simInsts/s")
	}
}

// BenchmarkTracerNil is the disabled-tracer fast path: the CI overhead
// gate compares it against BenchmarkCoupledLoop (pre-observability
// baseline shape) and fails if the nil check costs more than 2%.
func BenchmarkTracerNil(b *testing.B) { benchCoupled(b, nil) }

// BenchmarkTracerMetrics measures the aggregate-counters-only tracer.
func BenchmarkTracerMetrics(b *testing.B) {
	reg := obs.NewRegistry()
	benchCoupled(b, func() obs.Tracer { return obs.NewMetricsTracer(reg) })
}

// BenchmarkTracerRing measures the post-mortem ring buffer (copies every
// event's slices into retained storage).
func BenchmarkTracerRing(b *testing.B) {
	benchCoupled(b, func() obs.Tracer { return obs.NewRing(4096) })
}

// BenchmarkTracerJSONL measures the full streaming sink with I/O factored
// out (io.Discard), i.e. pure serialization cost.
func BenchmarkTracerJSONL(b *testing.B) {
	benchCoupled(b, func() obs.Tracer { return obs.NewJSONL(io.Discard) })
}

// benchCoupledProfiled is benchCoupled with a StageProfiler attached
// (one per iteration, matching production use of one profiler per run).
func benchCoupledProfiled(b *testing.B, mkProfiler func() *obs.StageProfiler) {
	b.Helper()
	prof, _ := trace.ByName("bzip2")
	cfg := benchOptions().Config
	ladder, err := dvfs.Binary(cfg.Tech, cfg.VMinFrac)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := dtm.Hyb(cfg.Trigger, 0.4, experiments.CrossoverGateStall, ladder)
		if err != nil {
			b.Fatal(err)
		}
		c := cfg
		if mkProfiler != nil {
			c.Profiler = mkProfiler()
		}
		sim, err := core.New(c, prof, pol)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Instructions)/b.Elapsed().Seconds(), "simInsts/s")
	}
}

// BenchmarkStageProfilerOff is the disabled-profiler fast path: identical
// workload to BenchmarkCoupledLoop with cfg.Profiler left nil, pinning
// the ~1% hoisted-nil-check budget the tentpole promises.
func BenchmarkStageProfilerOff(b *testing.B) { benchCoupledProfiled(b, nil) }

// BenchmarkStageProfilerOn measures profiler-on cost with every step
// timed (< 10% is the documented bound).
func BenchmarkStageProfilerOn(b *testing.B) {
	benchCoupledProfiled(b, func() *obs.StageProfiler { return obs.NewStageProfiler() })
}

// BenchmarkStatsTTest measures the paired t-test used for the 99%
// significance statements (fast; exists to keep the numeric path covered
// under -bench as well as -test).
func BenchmarkStatsTTest(b *testing.B) {
	x := []float64{1.15, 1.18, 1.22, 1.19, 1.25, 1.17, 1.21, 1.16, 1.24}
	y := []float64{1.10, 1.12, 1.18, 1.13, 1.20, 1.12, 1.15, 1.11, 1.19}
	for i := 0; i < b.N; i++ {
		if _, err := stats.PairedTTest(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalVsFG regenerates the §2 comparison: local toggling confers
// little advantage over fetch gating.
func BenchmarkLocalVsFG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := newPlan(b)
		res := p.LocalVsFG()
		runPlan(b, p)
		b.ReportMetric(res.FGMean(), "fg")
		b.ReportMetric(res.LocalMean(), "local")
	}
}

// BenchmarkMerit evaluates the §6 figure-of-merit study: the analytic
// crossover prediction from the physical models alone.
func BenchmarkMerit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.MeritStudy(benchOptions(), "gzip")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(1/res.PredictedCrossoverGate, "predictedDuty")
		b.ReportMetric(res.DVS.DeltaT, "dvsDeltaT")
	}
}

// BenchmarkGridThermal measures the grid-mode steady-state solve (the
// reference the block model is validated against) and reports solved grid
// cells per second, the metric the CI perf gate tracks as
// thermal.cells_per_sec.
func BenchmarkGridThermal(b *testing.B) {
	fp := floorplan.EV6()
	g, err := hotspot.NewGridModel(fp, hotspot.DefaultPackage(), 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	p := make([]float64, fp.NumBlocks())
	for j := range p {
		p[j] = 30 * fp.Block(j).Rect.Area() / fp.BlockArea()
	}
	dst := make([]float64, g.NumCells())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.SteadyStateInto(dst, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumCells()*b.N)/b.Elapsed().Seconds(), "cells/s")
}
