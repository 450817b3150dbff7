// Worker pool for the experiment engine. Every (benchmark, policy, config)
// simulation is independent, so sweeps fan out over a bounded pool of
// goroutines; the determinism guarantee is that results are written into a
// slot chosen by submission index, never by completion order, which makes
// output byte-identical across any Workers setting.
package experiments

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"hybriddtm/internal/core"
	"hybriddtm/internal/trace"
)

// Job is one simulation request: a benchmark under a policy with a config
// override. The slowdown is always normalized against the baseline of the
// runner's base config, which is what the paper normalizes against.
type Job struct {
	Config  core.Config
	Profile trace.Profile
	Factory PolicyFactory
}

// RunJobs executes the jobs on the runner's worker pool and returns their
// measurements in submission order. The first error cancels all outstanding
// work and is returned; measurements of already-finished jobs are
// discarded. RunJobs decides the schedule itself: the runs of a benchmark
// — its uncached baseline and its jobs — warm one core and follow it
// together while their policies act alike (see share.go).
func (r *Runner) RunJobs(ctx context.Context, jobs []Job) ([]Measurement, error) {
	out, _, err := r.runJobs(ctx, jobs, nil)
	return out, err
}

// runJobs is RunJobs that also computes the baselines of bases that are
// neither cached nor in flight, and returns the finished batch.
func (r *Runner) runJobs(ctx context.Context, jobs []Job, bases []trace.Profile) ([]Measurement, *batch, error) {
	b, err := r.plan(jobs, bases)
	if err != nil {
		return nil, nil, err
	}
	err = b.work(ctx)
	b.close()
	if err != nil {
		return nil, b, err
	}
	out := make([]Measurement, len(jobs))
	for _, u := range b.runs {
		if u.job < 0 {
			continue
		}
		if out[u.job], err = r.measure(ctx, jobs[u.job], u.res); err != nil {
			return nil, b, err
		}
	}
	return out, b, nil
}

// progress reports N/M completion with an ETA extrapolated from the mean
// job latency so far. Reporting goes through the runner's slog logger at
// Info level — human-readable when the CLIs wire stderr, silent otherwise.
type progress struct {
	log       *slog.Logger
	total     int
	completed atomic.Int64
	start     time.Time
}

func (r *Runner) newProgress(total int) *progress {
	return &progress{log: r.log, total: total, start: time.Now()} // progress ETA is log-only host time
}

func (p *progress) done() {
	n := int(p.completed.Add(1))
	if p.log == nil || !p.log.Enabled(context.Background(), slog.LevelInfo) {
		return
	}
	elapsed := time.Since(p.start) // progress ETA is log-only host time
	eta := time.Duration(float64(elapsed) / float64(n) * float64(p.total-n)).Round(time.Second)
	p.log.Info("progress", "done", n, "total", p.total,
		"elapsed", elapsed.Round(time.Second).String(), "eta", eta.String())
}

// forEach runs fn(ctx, i) for every i in [0, n) on at most `workers`
// goroutines. It serves MeritStudies, whose runs are cpu-only; every
// coupled simulation goes through a RunJobs batch. The first error cancels the derived context, stops feeding
// new indices, and is returned once all in-flight calls have finished.
// When several calls fail concurrently the error of whichever recorded
// first is kept (errors here are deterministic per index, so which one
// surfaces does not affect reproducibility of successful runs).
func forEach(ctx context.Context, workers, n int, fn func(context.Context, int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := fn(ctx, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err() // parent cancellation with no worker error recorded
}
