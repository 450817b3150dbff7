package experiments

import (
	"context"
	"reflect"
	"testing"
	"time"

	"hybriddtm/internal/dtm"
	"hybriddtm/internal/obs"
)

// script is a test policy that takes its decisions from a list, one per
// sensor sample; the last one repeats for every later sample.
type script struct {
	ds []dtm.Decision
	n  int
}

func (p *script) Name() string { return "script" }
func (p *script) Reset()       { p.n = 0 }

func (p *script) Sample(_, _ float64) dtm.Decision {
	d := p.ds[min(p.n, len(p.ds)-1)]
	p.n++
	return d
}

// gateScript gates fetch by g1 from the first sample and by g2 from
// sample k on.
func gateScript(name string, g1, g2 float64, k int) PolicyFactory {
	return PolicyFactory{Name: name, New: func() (dtm.Policy, error) {
		ds := make([]dtm.Decision, k)
		for i := range ds {
			ds[i].GateFrac = g1
		}
		ds[k-1].GateFrac = g2
		return &script{ds: ds}, nil
	}}
}

// splitOptions runs gzip with a short warm-up, a sensor sample every three
// or so thermal steps, and runs long enough for a dozen samples, so that
// scripted policies act and part within a few samples.
func splitOptions(t *testing.T) Options {
	t.Helper()
	opts := tinyOptions(t)
	opts.Instructions = 200_000
	cfg := opts.Config
	cfg.WarmupCycles = 20_000
	cfg.InitCycles = 20_000
	cfg.SettleInstructions = 50_000
	cfg.Sensors.SampleRate = 100e3
	opts.Config = cfg
	return opts
}

// TestNestedSplitsFinish runs batches whose runs share a core, part, and
// part again at later samples: in "nested" all four policy runs gate
// alike from the first sample, one pair parts at sample 2 and the other
// at sample 3; in "pairs" the two pairs gate differently from the first
// sample and part at samples 2 and 3. At 1 and 2 workers each batch must
// finish, keep at most Workers + 1 cores alive, free them all, and give
// Measurements deep-equal to solo runs.
func TestNestedSplitsFinish(t *testing.T) {
	opts := splitOptions(t)
	prof := opts.Benchmarks[0]
	jobs := func(fs ...PolicyFactory) []Job {
		js := make([]Job, len(fs))
		for i, f := range fs {
			js[i] = Job{Config: opts.Config, Profile: prof, Factory: f}
		}
		return js
	}
	batches := []struct {
		name string
		jobs []Job
	}{
		{"nested", jobs(gateScript("a1", 0.25, 0.5, 2), gateScript("a2", 0.25, 0.75, 2),
			gateScript("b1", 0.25, 0.5, 3), gateScript("b2", 0.25, 0.75, 3))},
		{"pairs", jobs(gateScript("a1", 0.2, 0.5, 2), gateScript("a2", 0.2, 0.75, 2),
			gateScript("b1", 0.3, 0.5, 3), gateScript("b2", 0.3, 0.75, 3))},
	}
	for _, bt := range batches {
		want := solo(t, opts, bt.jobs)
		for _, workers := range []int{1, 2} {
			o := opts
			o.Workers = workers
			r, err := NewRunner(o)
			if err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				got []Measurement
				b   *batch
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				got, b, err := r.runJobs(context.Background(), bt.jobs, nil)
				done <- outcome{got, b, err}
			}()
			var out outcome
			select {
			case out = <-done:
			case <-time.After(5 * time.Minute):
				t.Fatalf("%s, %d workers: the batch did not finish", bt.name, workers)
			}
			if out.err != nil {
				t.Fatalf("%s, %d workers: %v", bt.name, workers, out.err)
			}
			if !reflect.DeepEqual(out.got, want) {
				t.Errorf("%s, %d workers: shared runs differ from solo runs:\n%+v\n%+v", bt.name, workers, out.got, want)
			}
			if b := out.b; b.peak > workers+1 || b.live != 0 {
				t.Errorf("%s, %d workers: peak %d live cores (bound %d), %d left alive", bt.name, workers, b.peak, workers+1, b.live)
			}
		}
	}
}

// TestAlikeRunsShareOneCore runs two jobs whose policies act alike from
// the first sample to the end, with their baseline already cached: they
// follow one core throughout, so pool.core_steps counts each of their
// steps once.
func TestAlikeRunsShareOneCore(t *testing.T) {
	opts := splitOptions(t)
	opts.Workers = 2
	opts.Metrics = obs.NewRegistry()
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	prof := opts.Benchmarks[0]
	if _, err := r.BaselineContext(context.Background(), prof); err != nil {
		t.Fatal(err)
	}
	coreSteps, steps := opts.Metrics.Counter(obs.MetricPoolCoreSteps), opts.Metrics.Counter(obs.MetricThermalSteps)
	cs0, st0 := coreSteps.Value(), steps.Value()
	f := gateScript("gate", 0.25, 0.25, 1)
	jobs := []Job{{Config: opts.Config, Profile: prof, Factory: f}, {Config: opts.Config, Profile: prof, Factory: f}}
	got, err := r.RunJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if want := solo(t, opts, jobs); !reflect.DeepEqual(got, want) {
		t.Errorf("shared runs differ from solo runs:\n%+v\n%+v", got, want)
	}
	if got[0].Result.AvgGate == 0 {
		t.Fatal("the runs never gated; the test does not reach the shared gated path")
	}
	cs, st := coreSteps.Value()-cs0, steps.Value()-st0
	if st == 0 || 2*cs != st {
		t.Errorf("%s %d for %s %d, want half: two runs that act alike share every step", obs.MetricPoolCoreSteps, cs, obs.MetricThermalSteps, st)
	}
}
