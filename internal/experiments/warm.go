// Warm-state sharing for RunJobs batches. Every coupled run first pays a
// policy-independent pre-loop (cache/predictor warm-up, the init window,
// the leakage-coupled steady-state solve; see core.WarmUp). Within one
// batch the runs of a benchmark — its baseline and every policy — share
// that state: the first of them warms it once, the others fork it, and the
// last adopts it without a copy. Entries are reference-counted so a warm
// core lives only while a consumer still needs it, and tasks are
// dispatched grouped by key so few entries are live at once.
package experiments

import (
	"context"
	"sync"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/trace"
)

// warmEntry is one warm state in the Runner's cache.
type warmEntry struct {
	// refs counts the consumers, across batches, that have not yet forked
	// the entry; the entry leaves the cache when it reaches zero. Guarded
	// by Runner.mu.
	refs int

	// mu serializes the warm step and every fork, so the last consumer's
	// adoption never overlaps a sibling's copy.
	mu  sync.Mutex
	w   *core.Warm
	err error
}

// warmBatch is one RunJobs call's claim on the Runner's warm entries.
type warmBatch struct {
	left map[string]int // consumers per key not yet forked; guarded by Runner.mu
}

// task is one unit of pool work: a job, or the baseline of a profile
// (job < 0) that the batch computes ahead of its jobs.
type task struct {
	job  int
	prof trace.Profile
}

// plan orders a batch's tasks and counts the consumers of each warm key.
// Tasks are grouped by warm key in order of first submission, and the
// baseline of every profile not already cached leads its group, so the
// group's runs share one warm state while few groups are in flight.
// Results still land by submission index.
func (r *Runner) plan(jobs []Job) ([]task, map[string]int, error) {
	baseCfg := r.opts.Config
	cached := make(map[string]bool)
	r.mu.Lock()
	for _, j := range jobs {
		_, cached[j.Profile.Name] = r.baselines[j.Profile.Name]
	}
	r.mu.Unlock()

	var order []string
	groups := make(map[string][]task)
	counts := make(map[string]int)
	add := func(key string, t task) {
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], t)
		counts[key]++
	}
	for i, j := range jobs {
		key, err := core.WarmKey(j.Config, j.Profile)
		if err != nil {
			return nil, nil, err
		}
		if !cached[j.Profile.Name] {
			cached[j.Profile.Name] = true
			bkey, err := core.WarmKey(baseCfg, j.Profile)
			if err != nil {
				return nil, nil, err
			}
			add(bkey, task{job: -1, prof: j.Profile})
		}
		add(key, task{job: i, prof: j.Profile})
	}
	tasks := make([]task, 0, len(jobs))
	for _, k := range order {
		tasks = append(tasks, groups[k]...)
	}
	return tasks, counts, nil
}

// claimWarm registers a batch's consumer counts with the cache.
func (r *Runner) claimWarm(counts map[string]int) *warmBatch {
	r.mu.Lock()
	defer r.mu.Unlock()
	//dtmlint:allow detguard per-key reference counts; iteration order cannot matter
	for k, n := range counts {
		e := r.warm[k]
		if e == nil {
			e = &warmEntry{}
			r.warm[k] = e
		}
		e.refs += n
	}
	return &warmBatch{left: counts}
}

// releaseWarm drops the references a batch still holds — consumers that
// failed or were canceled before forking — once the batch has returned.
func (r *Runner) releaseWarm(b *warmBatch) {
	r.mu.Lock()
	defer r.mu.Unlock()
	//dtmlint:allow detguard per-key reference counts; iteration order cannot matter
	for k, n := range b.left {
		if e := r.warm[k]; e != nil && n > 0 {
			if e.refs -= n; e.refs <= 0 {
				delete(r.warm, k)
			}
		}
	}
}

// newSim builds one run's simulator. A consumer the batch counted for this
// config's warm key forks the shared warm state, computing it first if no
// sibling has; without a batch (RunJobContext) it builds a fresh
// simulator.
func (r *Runner) newSim(ctx context.Context, b *warmBatch, cfg core.Config, prof trace.Profile, pol dtm.Policy) (*core.Simulator, error) {
	if b == nil {
		return core.New(cfg, prof, pol)
	}
	key, err := core.WarmKey(cfg, prof)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	e := r.warm[key]
	counted := e != nil && b.left[key] > 0
	r.mu.Unlock()
	if !counted {
		return core.New(cfg, prof, pol)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.w == nil && e.err == nil {
		w, err := core.WarmUp(ctx, cfg, prof)
		if err != nil && ctx.Err() != nil {
			return nil, err // cancellation is never cached
		}
		e.w, e.err = w, err
	}
	if e.err != nil {
		return nil, e.err
	}
	r.mu.Lock()
	b.left[key]--
	e.refs--
	last := e.refs == 0
	if last {
		delete(r.warm, key)
	}
	r.mu.Unlock()
	if last {
		return core.AdoptWarm(cfg, prof, pol, e.w)
	}
	return core.NewFromWarm(cfg, prof, pol, e.w)
}
