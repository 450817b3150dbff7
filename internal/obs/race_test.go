package obs

import (
	"sync"
	"testing"
)

// TestMetricsTracerConcurrentEmit drives concurrent runs, each with its
// own MetricsTracer, into one shared registry — the shape a worker pool
// uses. Run under -race this pins the documented guarantee that tracers
// may share a Registry; the assertions catch lost updates even without
// -race.
func TestMetricsTracerConcurrentEmit(t *testing.T) {
	const goroutines = 8
	const perG = 1000

	reg := NewRegistry()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := NewMetricsTracer(reg)
			tr.Begin(Meta{Benchmark: "race", Policy: "none", Trigger: 70})
			temps := []float64{60, 61, 62}
			for i := 0; i < perG; i++ {
				ev := Event{Kind: KindStep, Step: uint64(i), Dt: 1e-6, Temps: temps, MaxTemp: 65}
				tr.Emit(&ev)
			}
			tr.End()
		}()
	}
	wg.Wait()

	if got := reg.Counter(MetricEvents).Value(); got != goroutines*perG {
		t.Errorf("%s = %d, want %d", MetricEvents, got, goroutines*perG)
	}
	if got := reg.Counter(MetricThermalSteps).Value(); got != goroutines*perG {
		t.Errorf("%s = %d, want %d", MetricThermalSteps, got, goroutines*perG)
	}
	if got := reg.Counter(MetricRuns).Value(); got != goroutines {
		t.Errorf("%s = %d, want %d", MetricRuns, got, goroutines)
	}
}
