// Core sharing for RunJobs batches. Every coupled run first pays a
// policy-independent pre-loop (cache/predictor warm-up, the init window,
// the leakage-coupled steady-state solve; see core.WarmUp), and a policy
// changes its run's pipeline only through its actuators. So within one
// batch the runs of a benchmark — its baseline and every policy — form a
// group: one worker warms the group's core once, and the group's runs
// then follow that core as one core.Cohort while they act alike
// (core.Simulator.SameActuation). Where they part, the largest set that
// still acts alike goes on sharing and every other run goes on alone.
//
// Every hand-over goes through one mechanism, a claim: some runs that go
// on from a cohort stopped at a step boundary. The warm fork is the
// step-0 case. A claim copies the stopped core when a worker starts it,
// and the stopped cohort's last claim adopts the core itself. Claims are
// queued ahead of new groups, and work that needs a new core waits while
// Workers + 1 cores are alive: one per worker and one stopped (see
// DESIGN.md "Shared cores").
package experiments

import (
	"context"
	"sync"
	"time"

	"hybriddtm/internal/core"
	"hybriddtm/internal/dtm"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/trace"
)

// run is one simulation of a batch: a job (job >= 0), or the baseline of a
// profile (job < 0) that the batch computes ahead of its jobs and
// publishes through base.
type run struct {
	job    int
	cfg    core.Config // as submitted, before instrument
	prof   trace.Profile
	base   *baselineEntry
	warm   string // core.WarmKey; set when the run simulates
	key    string // result cache key; "" when the run is not cached
	cached bool   // res came from the result cache
	sim    *core.Simulator
	start  time.Time
	res    core.Result
}

// shares reports whether the run may follow a cohort's core, and have
// its result cached: its own config carries no Tracer or Profiler. Those
// serve one run at a time and may be handed to several runs of a batch,
// while the per-run MetricsTracer that instrument adds is the run's own.
func (u *run) shares() bool { return u.cfg.Tracer == nil && u.cfg.Profiler == nil }

// claim is some runs that go on from a stopped cohort.
type claim struct {
	from *stopped
	runs []*run
}

// stopped is a cohort halted at a step boundary until its claims have
// started.
type stopped struct {
	co     *core.Cohort
	claims int            // not yet started; under batch.mu
	copies sync.WaitGroup // copies in progress; the adopting claim waits
}

// batch is one RunJobs call in flight.
type batch struct {
	r      *Runner
	jobs   []Job
	groups [][]*run // the runs of each warm state
	runs   []*run
	sims   int // runs that simulate
	prog   *progress

	mu    sync.Mutex
	cond  *sync.Cond // signals a new claim, a finished item or an error
	queue []*claim   // under mu
	next  int        // next group to start; under mu
	busy  int        // workers inside an item; under mu
	err   error      // first failure; under mu
	live  int        // cpu cores alive; under mu
	peak  int        // most cores alive at once; under mu
}

// plan groups a batch's runs by warm key, in order of first submission:
// the profiles of bases, whose baselines are wanted without jobs, then the
// jobs. The baseline of every profile not already cached or in flight
// leads its group, and the batch owns those baselines' entries until it
// has run them. A run found in the result cache joins no group: it is
// finished before the batch starts.
func (r *Runner) plan(jobs []Job, bases []trace.Profile) (*batch, error) {
	// The cache lookups and warm keys come first, outside the lock.
	prepare := func(u *run, spec *policySpec) error {
		if err := r.lookup(u, spec); err != nil || u.cached {
			return err
		}
		var err error
		u.warm, err = core.WarmKey(u.cfg, u.prof)
		return err
	}
	baseRuns := make(map[string]*run) // by profile name
	baseRun := func(prof trace.Profile) error {
		if _, ok := baseRuns[prof.Name]; ok {
			return nil
		}
		u := &run{job: -1, cfg: r.opts.Config, prof: prof}
		baseRuns[prof.Name] = u
		return prepare(u, nil)
	}
	for _, p := range bases {
		if err := baseRun(p); err != nil {
			return nil, err
		}
	}
	jobRuns := make([]*run, len(jobs))
	for i, j := range jobs {
		jobRuns[i] = &run{job: i, cfg: j.Config, prof: j.Profile}
		if err := prepare(jobRuns[i], j.Factory.spec); err != nil {
			return nil, err
		}
		if err := baseRun(j.Profile); err != nil {
			return nil, err
		}
	}
	b := &batch{r: r, jobs: jobs}
	b.cond = sync.NewCond(&b.mu)
	byKey := make(map[string]int)
	hits, simJobs := 0, 0
	add := func(u *run) {
		b.runs = append(b.runs, u)
		if u.cached {
			hits++
			return
		}
		b.sims++
		if u.job >= 0 {
			simJobs++
		}
		g, ok := byKey[u.warm]
		if !ok {
			g = len(b.groups)
			byKey[u.warm] = g
			b.groups = append(b.groups, nil)
		}
		b.groups[g] = append(b.groups[g], u)
	}
	addBase := func(prof trace.Profile) {
		if _, ok := r.baselines[prof.Name]; !ok {
			u := baseRuns[prof.Name]
			u.base = &baselineEntry{done: make(chan struct{}), res: u.res}
			r.baselines[prof.Name] = u.base
			if u.cached {
				close(u.base.done)
			}
			add(u)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range bases {
		addBase(p)
	}
	for i, j := range jobs {
		addBase(j.Profile)
		add(jobRuns[i])
	}
	b.prog = r.newProgress(simJobs)
	if r.metrics != nil && r.cache != nil {
		r.metrics.Counter(obs.MetricPoolCacheHits).Add(int64(hits))
	}
	return b, nil
}

// lookup gives a run its result cache key and, on a hit, its cached
// result. A run without a key — no cache, a Tracer or Profiler, or a job
// whose factory has no spec — always simulates.
func (r *Runner) lookup(u *run, spec *policySpec) error {
	if r.cache == nil || !u.shares() || (u.job >= 0 && spec == nil) {
		return nil
	}
	var err error
	if u.key, err = runKey(r.sources, u.cfg, u.prof, r.opts.Instructions, spec); err != nil {
		return err
	}
	u.res, u.cached = r.cache.get(u.key)
	return nil
}

// close releases what a batch leaves behind: it ends the traces of runs
// abandoned inside a cohort and withdraws the baselines it owned but did
// not finish, so that a later caller computes them afresh.
func (b *batch) close() {
	for _, u := range b.runs {
		if u.sim != nil {
			u.sim.Close()
		}
	}
	b.r.mu.Lock()
	defer b.r.mu.Unlock()
	for _, u := range b.runs {
		if e := u.base; e != nil {
			select {
			case <-e.done:
			default:
				e.err = context.Canceled
				delete(b.r.baselines, u.prof.Name)
				close(e.done)
			}
		}
	}
}

// work runs the batch on the worker pool until every run has finished or
// the first error, which cancels the rest and is returned.
func (b *batch) work(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := b.r.workers
	if workers > b.sims {
		workers = b.sims
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			b.worker(ctx, cancel)
		}()
	}
	wg.Wait()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return b.err
	}
	return ctx.Err()
}

// worker takes items until none are left: a queued claim if there is one,
// else the next group. Taking claims first keeps few cores alive, and an
// item that needs a new core — a group's warm-up or a claim's copy — waits
// while Workers + 1 cores are alive.
func (b *batch) worker(ctx context.Context, cancel context.CancelFunc) {
	for {
		var c *claim
		var g []*run
		adopt := false
		b.mu.Lock()
		for {
			if b.err == nil {
				b.err = ctx.Err()
			}
			if b.err != nil || (len(b.queue) == 0 && b.next == len(b.groups) && b.busy == 0) {
				b.mu.Unlock()
				return
			}
			room := b.live <= b.r.workers
			if len(b.queue) > 0 && (room || b.queue[0].from.claims == 1) {
				c = b.queue[0]
				b.queue[0] = nil
				b.queue = b.queue[1:]
				c.from.claims--
				if adopt = c.from.claims == 0; !adopt {
					c.from.copies.Add(1)
					b.live++
				}
				break
			}
			if len(b.queue) == 0 && b.next < len(b.groups) && room {
				g = b.groups[b.next]
				b.next++
				b.live++
				break
			}
			b.cond.Wait()
		}
		if b.live > b.peak {
			b.peak = b.live
		}
		b.busy++
		b.mu.Unlock()

		if m := b.r.metrics; m != nil {
			m.Gauge(obs.MetricPoolActive).Add(1)
		}
		var claims []*claim
		var err error
		if g != nil {
			claims, err = b.warm(ctx, g)
		} else {
			claims, err = b.follow(ctx, c, adopt)
		}
		if m := b.r.metrics; m != nil {
			m.Gauge(obs.MetricPoolActive).Add(-1)
		}

		b.mu.Lock()
		b.busy--
		if err != nil {
			if b.err == nil {
				b.err = err
			}
			cancel()
		} else if claims == nil {
			b.live-- // the item's core is done with
		} else {
			// One stopped cohort; its last claim adopts the core.
			claims[0].from.claims = len(claims)
			b.queue = append(b.queue, claims...)
		}
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// warm starts a group: it warms the group's core, joins every run to it
// and stops the cohort at step 0 with its claims. Runs that may share and
// use the first sharing run's thermal step follow the core together as
// the last claim; every other run is a claim of its own.
func (b *batch) warm(ctx context.Context, g []*run) ([]*claim, error) {
	lead := g[0]
	w, err := core.WarmUp(ctx, lead.cfg, lead.prof)
	if err != nil {
		return nil, err
	}
	co, err := core.NewCohort(w, b.r.opts.Instructions)
	if err != nil {
		return nil, err
	}
	from := &stopped{co: co}
	var claims []*claim
	shared := &claim{from: from}
	for _, u := range g {
		var pol dtm.Policy
		if u.job >= 0 {
			if pol, err = b.jobs[u.job].Factory.New(); err != nil {
				return nil, err
			}
		}
		if u.sim, err = co.Join(b.r.instrument(u.cfg), u.prof, pol); err != nil {
			return nil, err
		}
		u.start = time.Now() // host-side job latency metric; never feeds Measurements
		if u.shares() && (len(shared.runs) == 0 || u.cfg.ThermalStepCycles == shared.runs[0].cfg.ThermalStepCycles) {
			shared.runs = append(shared.runs, u)
		} else {
			claims = append(claims, &claim{from: from, runs: []*run{u}})
		}
	}
	if len(shared.runs) > 0 {
		claims = append(claims, shared)
	}
	return claims, nil
}

// follow starts a claim on its own core and runs it until its runs have
// finished or no longer act alike. Then the cohort stops with new claims:
// every run outside the largest group that acts alike goes on alone, and
// that group goes on sharing as the last claim, which adopts the core.
func (b *batch) follow(ctx context.Context, c *claim, adopt bool) ([]*claim, error) {
	if adopt {
		c.from.copies.Wait()
	}
	sims := make([]*core.Simulator, len(c.runs))
	for i, u := range c.runs {
		sims[i] = u.sim
	}
	co, err := c.from.co.Fork(sims, adopt)
	if !adopt {
		c.from.copies.Done()
	}
	if err != nil {
		return nil, err
	}
	if len(c.runs) == 1 {
		u := c.runs[0]
		before := u.sim.Steps()
		res, err := u.sim.RunContext(ctx, b.r.opts.Instructions)
		b.countSteps(u.sim.Steps() - before)
		if err != nil {
			return nil, err
		}
		return nil, b.finish(u, res)
	}
	left := append([]*run(nil), c.runs...)
	var steps uint64
	defer func() { b.countSteps(steps) }()
	for len(left) > 0 {
		if err := co.Step(ctx); err != nil {
			return nil, err
		}
		steps++
		kept := left[:0]
		for _, u := range left {
			if !u.sim.Done() {
				kept = append(kept, u)
				continue
			}
			res, err := u.sim.RunContext(ctx, b.r.opts.Instructions)
			if err != nil {
				return nil, err
			}
			if err := b.finish(u, res); err != nil {
				return nil, err
			}
		}
		left = kept
		groups := byActuation(left)
		if len(groups) < 2 {
			continue
		}
		// Only one group goes on sharing, so a group in flight holds at
		// most one stopped core (DESIGN.md "Shared cores").
		largest := 0
		for i, g := range groups {
			if len(g) > len(groups[largest]) {
				largest = i
			}
		}
		from := &stopped{co: co}
		claims := make([]*claim, 0, len(left)+1)
		for i, g := range groups {
			if i == largest {
				continue
			}
			for _, u := range g {
				claims = append(claims, &claim{from: from, runs: []*run{u}})
			}
		}
		return append(claims, &claim{from: from, runs: groups[largest]}), nil
	}
	return nil, nil
}

// byActuation groups runs that act alike, in order of first appearance.
func byActuation(runs []*run) [][]*run {
	var groups [][]*run
next:
	for _, u := range runs {
		for i, g := range groups {
			if u.sim.SameActuation(g[0].sim) {
				groups[i] = append(g, u)
				continue next
			}
		}
		groups = append(groups, []*run{u})
	}
	return groups
}

// countSteps adds thermal steps advanced on one core to pool.core_steps.
func (b *batch) countSteps(n uint64) {
	if m := b.r.metrics; m != nil {
		m.Counter(obs.MetricPoolCoreSteps).Add(int64(n))
	}
}

// finish records a finished run: a keyed run stores its result in the
// result cache, a baseline fills its entry, a job counts toward the pool
// metrics and the progress log.
func (b *batch) finish(u *run, res core.Result) error {
	u.res = res
	u.sim = nil // drop the run's core now rather than with the batch
	if u.key != "" {
		if err := b.r.cache.put(u.key, res); err != nil {
			return err
		}
	}
	if e := u.base; e != nil {
		e.res = res
		close(e.done)
		b.r.ranBaseline(u.prof, res)
		return nil
	}
	b.r.ranJob(b.jobs[u.job], res, u.start)
	b.prog.done()
	return nil
}
