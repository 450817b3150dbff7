package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/trace"
)

// fig4Options is the determinism test's configuration: the full nine-
// benchmark suite at the smallest budget the coupled loop accepts without
// degenerate windows, so the 90 simulations (baseline + four policies per
// benchmark, twice) stay fast enough for -race runs.
func fig4Options() Options {
	opts := DefaultOptions()
	opts.Instructions = 100_000
	cfg := core.DefaultConfig()
	cfg.WarmupCycles = 100_000
	cfg.InitCycles = 100_000
	cfg.SettleInstructions = 100_000
	opts.Config = cfg
	return opts
}

// TestFig4ParallelDeterminism runs the full Fig4 suite serially and on
// eight workers and asserts measurement-for-measurement equality — any
// hidden shared state in policies, trace generators, sensors or the RC
// thermal solver would show up as a diff here (and as a -race report).
func TestFig4ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 90 simulations")
	}
	run := func(workers int) Fig4Result {
		t.Helper()
		opts := fig4Options()
		opts.Workers = workers
		r, err := NewRunner(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Fig4(context.Background(), r, true)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel Fig4 differs from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestSuiteParallelMatchesSerial is the cheap per-measurement variant of
// the determinism guarantee: every field of every Measurement must match,
// not just the aggregated figures.
func TestSuiteParallelMatchesSerial(t *testing.T) {
	opts := tinyOptions(t)
	gcc, _ := trace.ByName("gcc")
	art, _ := trace.ByName("art")
	opts.Benchmarks = append(opts.Benchmarks, gcc, art)
	run := func(workers int) []Measurement {
		t.Helper()
		o := opts
		o.Workers = workers
		r, err := NewRunner(o)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := r.SuiteContext(context.Background(), o.Config, DVSPolicy(o.Config))
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	serial := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel suite differs from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if serial[0].Benchmark != "gzip" || serial[1].Benchmark != "gcc" || serial[2].Benchmark != "art" {
		t.Errorf("submission order not preserved: %v", []string{serial[0].Benchmark, serial[1].Benchmark, serial[2].Benchmark})
	}
}

// TestBaselineSingleflight hammers the baseline cache from 16 goroutines.
// Exactly one simulation must run (counted via the progress log) and every
// caller must see the identical result. Run under -race this also proves
// the cache and logger are data-race free.
func TestBaselineSingleflight(t *testing.T) {
	var buf bytes.Buffer
	opts := tinyOptions(t)
	opts.Logger = debugLogger(&buf)
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	prof := opts.Benchmarks[0]

	const goroutines = 16
	results := make([]core.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.BaselineContext(context.Background(), prof)
		}(i)
	}
	wg.Wait()

	for i := 1; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Errorf("goroutine %d saw a different baseline: %+v vs %+v", i, results[i], results[0])
		}
	}
	if n := strings.Count(buf.String(), "msg=run "); n != 1 {
		t.Errorf("baseline simulated %d times, want exactly 1 (singleflight)\nlog:\n%s", n, buf.String())
	}
}

// TestRunJobsFirstErrorCancels submits a batch where one factory fails and
// asserts the batch returns that error (not a later one, not a partial
// result slice).
func TestRunJobsFirstErrorCancels(t *testing.T) {
	opts := tinyOptions(t)
	opts.Workers = 4
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("factory exploded")
	good := DVSPolicy(opts.Config)
	bad := PolicyFactory{Name: "bad", New: func() (dtm.Policy, error) { return nil, boom }}
	jobs := []Job{
		{Config: opts.Config, Profile: opts.Benchmarks[0], Factory: bad},
		{Config: opts.Config, Profile: opts.Benchmarks[0], Factory: good},
	}
	ms, err := r.RunJobs(context.Background(), jobs)
	if !errors.Is(err, boom) {
		t.Errorf("RunJobs error = %v, want %v", err, boom)
	}
	if ms != nil {
		t.Errorf("RunJobs returned measurements alongside an error: %+v", ms)
	}
}

// TestRunJobsObservesCancellation verifies a pre-canceled context aborts
// before any simulation runs, and that cancellation surfaces as ctx.Err().
func TestRunJobsObservesCancellation(t *testing.T) {
	var buf bytes.Buffer
	opts := tinyOptions(t)
	opts.Logger = debugLogger(&buf)
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []Job{{Config: opts.Config, Profile: opts.Benchmarks[0], Factory: DVSPolicy(opts.Config)}}
	if _, err := r.RunJobs(ctx, jobs); !errors.Is(err, context.Canceled) {
		t.Errorf("RunJobs with canceled context = %v, want context.Canceled", err)
	}
	if buf.Len() != 0 {
		t.Errorf("simulations ran despite canceled context:\n%s", buf.String())
	}
	// A canceled baseline must not poison the cache: a live context after
	// the canceled one recomputes and succeeds.
	if _, err := r.BaselineContext(context.Background(), opts.Benchmarks[0]); err != nil {
		t.Errorf("baseline after canceled attempt: %v", err)
	}
}

// TestForEachOrdering checks the pool helper covers every index exactly
// once for worker counts below, at, and above the job count.
func TestForEachOrdering(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 32} {
		var mu sync.Mutex
		seen := make(map[int]int)
		err := forEach(context.Background(), workers, 10, func(ctx context.Context, i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := 0; i < 10; i++ {
			if seen[i] != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, seen[i])
			}
		}
	}
}

// TestWorkersDefault checks worker-count resolution and validation.
func TestWorkersDefault(t *testing.T) {
	opts := tinyOptions(t)
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers() < 1 {
		t.Errorf("default Workers() = %d, want >= 1", r.Workers())
	}
	opts.Workers = 3
	if r, err = NewRunner(opts); err != nil || r.Workers() != 3 {
		t.Errorf("Workers=3 gave (%v, %v)", r.Workers(), err)
	}
	opts.Workers = -1
	if _, err = NewRunner(opts); err == nil {
		t.Error("accepted negative worker count")
	}
}

// TestSharedRegistryUnderPool hammers one metrics Registry from a
// 16-worker pool. Run under -race this proves the lock-free counters,
// gauges and histograms (and the per-run MetricsTracers feeding them) are
// safe to share across every goroutine of a sweep; the count assertions
// prove no increment is lost to a racy read-modify-write.
func TestSharedRegistryUnderPool(t *testing.T) {
	reg := obs.NewRegistry()
	opts := tinyOptions(t)
	opts.Workers = 16
	opts.Metrics = reg
	r, err := NewRunner(opts)
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Config: opts.Config, Profile: opts.Benchmarks[0], Factory: DVSPolicy(opts.Config)}
	}
	ms, err := r.RunJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != n {
		t.Fatalf("got %d measurements, want %d", len(ms), n)
	}

	// n pool jobs plus the singleflighted baseline run feed the registry.
	if got := reg.Counter(obs.MetricPoolJobs).Value(); got != n {
		t.Errorf("%s = %d, want %d", obs.MetricPoolJobs, got, n)
	}
	if got := reg.Counter(obs.MetricRuns).Value(); got != n+1 {
		t.Errorf("%s = %d, want %d", obs.MetricRuns, got, n+1)
	}
	if got := reg.Histogram(obs.MetricPoolJobSeconds).Count(); got != n {
		t.Errorf("%s count = %d, want %d", obs.MetricPoolJobSeconds, got, n)
	}
	if got := reg.Counter(obs.MetricThermalSteps).Value(); got <= 0 {
		t.Errorf("%s = %d, want > 0", obs.MetricThermalSteps, got)
	}
	// All workers have exited, so the active-worker gauge must be back to 0.
	if got := reg.Gauge(obs.MetricPoolActive).Value(); got != 0 {
		t.Errorf("%s = %v, want 0 after pool drain", obs.MetricPoolActive, got)
	}
}

// debugLogger logs every level to w as slog text, so tests can count the
// per-run "run" records.
func debugLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug}))
}
