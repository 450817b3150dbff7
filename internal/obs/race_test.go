package obs

import (
	"sync"
	"testing"
)

// TestRingConcurrentEmit drives concurrent emissions through Combine(Ring,
// MetricsTracer) — the shape a worker pool uses when every run's tracer
// fans into one shared tail-keeper and one shared registry. Run under
// -race this pins the documented guarantee that Ring and the registry are
// safe to share; the assertions catch lost updates even without -race.
func TestRingConcurrentEmit(t *testing.T) {
	const goroutines = 8
	const perG = 1000

	reg := NewRegistry()
	ring := NewRing(64)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-run tracer instances share the ring and registry.
			tr := Combine(ring, NewMetricsTracer(reg))
			tr.Begin(Meta{Benchmark: "race", Policy: "none", Trigger: 70})
			temps := []float64{60, 61, 62}
			for i := 0; i < perG; i++ {
				ev := Event{Kind: KindStep, Step: uint64(i), Dt: 1e-6, Temps: temps, MaxTemp: 65}
				tr.Emit(&ev)
				// Mutate the borrowed slice like the simulator's scratch
				// buffer does; the ring must have copied it.
				temps[i%len(temps)] += 0.001
			}
			tr.End()
		}()
	}
	wg.Wait()

	if got := ring.Total(); got != goroutines*perG {
		t.Errorf("ring total = %d, want %d", got, goroutines*perG)
	}
	_, events := ring.Snapshot()
	if len(events) != 64 {
		t.Fatalf("retained %d events, want 64", len(events))
	}
	for i, ev := range events {
		if ev.Kind != KindStep || len(ev.Temps) != 3 {
			t.Fatalf("event %d corrupted: kind=%v temps=%v", i, ev.Kind, ev.Temps)
		}
	}
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
