package cpu

import (
	"testing"

	"hybriddtm/internal/trace"
)

func benchProfile(b *testing.B, name string) trace.Profile {
	b.Helper()
	p, ok := trace.ByName(name)
	if !ok {
		b.Fatalf("profile %s missing", name)
	}
	return p
}

// benchCoreRun measures raw pipeline throughput in DTM-chunk-sized calls
// (the shape the coupled loop produces), reporting both simulated cycles
// and committed instructions per wall second.
func benchCoreRun(b *testing.B, p trace.Profile, reference bool, gates Gates) {
	g, err := trace.NewGenerator(p)
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(DefaultConfig(), g)
	if err != nil {
		b.Fatal(err)
	}
	c.UseReferencePipeline(reference)
	const chunk = 100_000
	var act Activity
	if _, err := c.RunGated(chunk, gates, &act); err != nil { // warm caches/predictor
		b.Fatal(err)
	}
	act.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunGated(chunk, gates, &act); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(act.Cycles)/sec, "simCycles/s")
		b.ReportMetric(float64(act.Committed)/sec, "insts/s")
	}
}

// BenchmarkCoreRun is the pipeline microbenchmark family: batched vs
// reference kernels across workload archetypes and gate settings, plus a
// per-stage attribution pass. The batched/reference pairs quantify what
// the kernels buy; the stages pass shows where the remaining per-cycle
// budget goes.
func BenchmarkCoreRun(b *testing.B) {
	gzip := benchProfile(b, "gzip")
	memBound := testProfile()
	memBound.SpillProb = 0.2
	memBound.ColdFootprint = 64 << 20

	b.Run("batched/gzip", func(b *testing.B) { benchCoreRun(b, gzip, false, Gates{}) })
	b.Run("reference/gzip", func(b *testing.B) { benchCoreRun(b, gzip, true, Gates{}) })
	b.Run("batched/gzip-gated", func(b *testing.B) { benchCoreRun(b, gzip, false, Gates{Fetch: 1.0 / 3}) })
	b.Run("reference/gzip-gated", func(b *testing.B) { benchCoreRun(b, gzip, true, Gates{Fetch: 1.0 / 3}) })
	b.Run("batched/mem-bound", func(b *testing.B) { benchCoreRun(b, memBound, false, Gates{}) })
	b.Run("reference/mem-bound", func(b *testing.B) { benchCoreRun(b, memBound, true, Gates{}) })
}
