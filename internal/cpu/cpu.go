// Package cpu implements a cycle-level out-of-order superscalar core in the
// style of the Alpha 21264 the paper models (§3): 4-wide fetch through an
// instruction fetch queue, register rename (modeled as a last-writer
// scoreboard over the architectural registers with the ROB bounding the
// window), separate integer / floating-point / memory issue queues with
// oldest-first select, pipelined functional units, a two-ported data cache
// with MSHR-limited misses, and in-order commit.
//
// The core is trace-driven (see internal/trace) but timing-faithful: branch
// mispredictions stall and redirect the front end through a real tournament
// predictor, instruction and data accesses go through real caches, and
// fetch gating — the paper's ILP DTM technique — gates the fetch stage
// (I-cache access and branch prediction included) on a deterministic duty
// pattern. Whether gating costs performance is decided by the pipeline:
// while the fetch queue and window keep the issue stages fed, gated fetch
// cycles are hidden by ILP, which is the architectural phenomenon the
// hybrid DTM policy exploits (§4.2).
//
// Pipeline state is laid out structure-of-arrays (see DESIGN.md "Pipeline
// kernels"): the ROB and fetch queue are parallel flat slices indexed by
// ring position with power-of-two masks, preallocated at New, and the
// batched kernels in kernel.go advance the pipeline over runs of cycles
// between DTM-visible boundaries. The cycle-at-a-time loop in this file is
// retained as the reference semantics; the kernels are proven equivalent
// against it by the equivalence and fuzz tests.
package cpu

import (
	"fmt"
	"slices"

	"hybriddtm/internal/bpred"
	"hybriddtm/internal/cache"
	"hybriddtm/internal/obs"
	"hybriddtm/internal/stats"
	"hybriddtm/internal/trace"
)

// Config sizes the pipeline. DefaultConfig gives the 21264-like machine
// used throughout the paper's experiments.
type Config struct {
	FetchWidth    int
	DispatchWidth int
	IntIssueWidth int
	FPIssueWidth  int
	MemIssueWidth int
	CommitWidth   int

	ROBSize  int
	IFQSize  int
	IntQSize int
	FPQSize  int
	LSQSize  int

	MispredictPenalty int // front-end redirect cycles after resolution

	IntMulLatency int
	FPAddLatency  int
	FPMulLatency  int

	MSHRs int // maximum outstanding data-cache misses

	BPred  bpred.Config
	Caches cache.HierarchyConfig
}

// DefaultConfig returns the 21264-like configuration: 4-wide fetch and
// dispatch, 4 integer / 2 FP / 2 memory issue ports, 80-entry window.
func DefaultConfig() Config {
	return Config{
		FetchWidth:    4,
		DispatchWidth: 4,
		IntIssueWidth: 4,
		FPIssueWidth:  2,
		MemIssueWidth: 2,
		CommitWidth:   6,

		ROBSize:  80,
		IFQSize:  16,
		IntQSize: 20,
		FPQSize:  15,
		LSQSize:  32,

		MispredictPenalty: 7,

		IntMulLatency: 7,
		FPAddLatency:  4,
		FPMulLatency:  4,

		MSHRs: 8,

		BPred:  bpred.DefaultConfig(),
		Caches: cache.DefaultHierarchy(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	pos := []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth}, {"DispatchWidth", c.DispatchWidth},
		{"IntIssueWidth", c.IntIssueWidth}, {"FPIssueWidth", c.FPIssueWidth},
		{"MemIssueWidth", c.MemIssueWidth}, {"CommitWidth", c.CommitWidth},
		{"ROBSize", c.ROBSize}, {"IFQSize", c.IFQSize},
		{"IntQSize", c.IntQSize}, {"FPQSize", c.FPQSize}, {"LSQSize", c.LSQSize},
		{"IntMulLatency", c.IntMulLatency}, {"FPAddLatency", c.FPAddLatency},
		{"FPMulLatency", c.FPMulLatency}, {"MSHRs", c.MSHRs},
	}
	for _, p := range pos {
		if p.v <= 0 {
			return fmt.Errorf("cpu: %s = %d must be positive", p.name, p.v)
		}
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("cpu: negative mispredict penalty %d", c.MispredictPenalty)
	}
	return nil
}

// fetch-block states.
const (
	blockNone         = iota
	blockWaitDispatch // mispredicted branch fetched but not yet in the ROB
	blockWaitResolve  // waiting for the branch at blockSeq to execute
)

// unknownReady is the issueQueue.minReady sentinel: no queued entry has a
// computable ready-at cycle (every stalled entry waits on an un-issued
// producer).
const unknownReady = ^uint64(0)

// issueQueue is one issue domain's scheduler, event-driven: only entries
// whose ready-at cycle is already known live in the ready list (sorted by
// sequence number, so a walk is an oldest-first scan of genuinely
// schedulable work); entries still waiting on an un-issued producer are
// represented only by the unknown counter and the producer wakeup lists,
// and enter the ready list when their last producer issues. minReady is a
// lower bound on the earliest cycle at which any queued entry can issue:
// walks recompute it exactly, dispatch and wakeups only ever lower it, so
// while cycle < minReady a walk provably selects nothing and the batched
// kernels skip it. A walk that leaves ready-but-unissued entries behind
// (width or MSHR limits) pins it at or below the current cycle, forcing a
// walk every cycle until the backlog drains.
//
// A wakeup that lands while the queue's own walk is in progress (an
// instruction issued this walk waking a same-domain consumer) is parked in
// pending and folded in at the end of the walk: the consumer's ready-at is
// at least cycle+1, so deferring its insertion past the in-progress scan
// cannot change what issues this cycle.
type issueQueue struct {
	ready    []uint64 // un-issued, ready-at known, sorted by seq
	pending  []uint64 // wakeups deferred while walking
	unknown  int      // un-issued entries waiting on a producer
	walking  bool
	minReady uint64
}

// size returns the number of queued (un-issued) instructions, the quantity
// dispatch checks against the queue's capacity.
func (q *issueQueue) size() int { return len(q.ready) + q.unknown }

// noteReady lowers the queue's ready watermark for a newly computed
// ready-at cycle.
func (q *issueQueue) noteReady(ra uint64) {
	if ra < q.minReady {
		q.minReady = ra
	}
}

// insertReady places seq into the ready list keeping sequence order.
// Wakeups arrive mostly in age order, so the insertion scan from the tail
// is short in practice.
func (q *issueQueue) insertReady(seq uint64) {
	r := append(q.ready, seq) //dtmlint:allow allocguard bounded by the queue capacity; cap settles during warm-up
	i := len(r) - 1
	for i > 0 && r[i-1] > seq {
		r[i] = r[i-1]
		i--
	}
	r[i] = seq
	q.ready = r
}

// enqueueReady routes a newly known-ready entry: parked while the queue's
// own walk is scanning, inserted directly otherwise.
func (q *issueQueue) enqueueReady(seq uint64, ra uint64) {
	if q.walking {
		q.pending = append(q.pending, seq) //dtmlint:allow allocguard bounded by the queue capacity; cap settles during warm-up
		return
	}
	q.insertReady(seq)
	q.noteReady(ra)
}

// Core is the simulated processor. Not safe for concurrent use; run one
// Core per goroutine.
//
// All ring state is structure-of-arrays: the ROB fields live in parallel
// slices indexed by seq&robMask, the fetch queue in parallel slices indexed
// by position&ifqMask. Both are padded to powers of two at New so the hot
// loops index with a mask instead of a division; masking stays injective
// because at most ROBSize (resp. IFQSize) entries are ever in flight.
type Core struct {
	cfg Config
	gen trace.Source
	bp  *bpred.Predictor
	mem *cache.Hierarchy

	cycle      uint64
	head, tail uint64 // ROB sequence numbers: [head, tail) in flight

	// ROB, structure-of-arrays. A slot is fully overwritten at dispatch,
	// so stale fields from retired instructions are never observable.
	robMask    uint64
	robClass   []trace.Class
	robDst     []uint8
	robDep1    []uint64 // writer seq+1; 0 = no dependence
	robDep2    []uint64
	robAddr    []uint64
	robIssued  []bool
	robDoneAt  []uint64
	robMispred []bool
	robSeq     []uint64 // full sequence number of the slot's occupant
	// robReadyAt holds the cycle at which both sources are available (0 =
	// not yet known because a producer has not issued). It is computed
	// eagerly — at dispatch when every producer has already issued,
	// otherwise by the wakeup walk when the last outstanding producer
	// issues — so the issue walks are pure compare loops with no
	// producer-chasing on the hot path.
	robReadyAt []uint64
	// robMissing counts un-issued producers at dispatch; the entry's
	// ready-at is computed when it reaches zero.
	robMissing []uint8
	// Producer→consumer wakeup lists, allocation-free linked lists over
	// fixed arrays: wakeHead[p] is the first wake node of the instructions
	// waiting on producer slot p; node id n = consumerSlot*2+depIndex
	// (each consumer has at most two producers, so two node slots per ROB
	// slot suffice); wakeNext[n] chains them. Stored values are node id+1,
	// 0 = end of list. A producer's list is consumed exactly once, at its
	// issue, which happens before any waiter can issue and therefore
	// before either slot is reused — so no stale links survive.
	wakeHead []int32
	wakeNext []int32

	regWriter [64]uint64 // seq+1 of last writer per architectural register

	// Fetch queue, structure-of-arrays.
	ifqMask    int
	ifqHead    int
	ifqCount   int
	ifqClass   []trace.Class
	ifqDst     []uint8
	ifqSrc1    []uint8
	ifqSrc2    []uint8
	ifqAddr    []uint64
	ifqMispred []bool

	intQ, fpQ, memQ issueQueue

	// issues counts every instruction issued, across all domains; the
	// batched kernels use it to detect dead cycles (no issue anywhere).
	issues uint64

	gateAcc float64 // fetch-gating duty accumulator
	// Per-domain issue gating accumulators (local toggling, §2): a gated
	// cycle suppresses that domain's issue stage.
	intGateAcc, fpGateAcc, memGateAcc float64

	fetchStallUntil uint64 // I-cache miss in service
	blockState      int
	blockSeq        uint64

	pending      trace.Inst // lookahead instruction from the trace
	pendingValid bool

	mshr []uint64 // completion cycles of outstanding data misses

	memLatency int // off-chip latency in cycles at the current frequency

	committed uint64

	// referencePath forces the cycle-at-a-time loop (see
	// UseReferencePipeline); the equivalence and fuzz tests diff it
	// against the batched kernels.
	referencePath bool
}

// nextPow2 returns the smallest power of two ≥ n (n ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New builds a core running the given trace source (a synthetic generator
// or a recorded-trace reader). All pipeline storage — ROB and fetch-queue
// arrays, issue queues, MSHR list — is preallocated here; the simulation
// paths never touch the heap (enforced by the AllocsPerRun==0 contracts).
func New(cfg Config, gen trace.Source) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if gen == nil {
		return nil, fmt.Errorf("cpu: nil trace generator")
	}
	bp, err := bpred.New(cfg.BPred)
	if err != nil {
		return nil, err
	}
	mem, err := cache.NewHierarchy(cfg.Caches)
	if err != nil {
		return nil, err
	}
	robCap := nextPow2(cfg.ROBSize)
	ifqCap := nextPow2(cfg.IFQSize)
	c := &Core{
		cfg: cfg,
		gen: gen,
		bp:  bp,
		mem: mem,

		robMask:    uint64(robCap - 1),
		robClass:   make([]trace.Class, robCap),
		robDst:     make([]uint8, robCap),
		robDep1:    make([]uint64, robCap),
		robDep2:    make([]uint64, robCap),
		robAddr:    make([]uint64, robCap),
		robIssued:  make([]bool, robCap),
		robDoneAt:  make([]uint64, robCap),
		robMispred: make([]bool, robCap),
		robSeq:     make([]uint64, robCap),
		robReadyAt: make([]uint64, robCap),
		robMissing: make([]uint8, robCap),
		wakeHead:   make([]int32, robCap),
		wakeNext:   make([]int32, 2*robCap),

		ifqMask:    ifqCap - 1,
		ifqClass:   make([]trace.Class, ifqCap),
		ifqDst:     make([]uint8, ifqCap),
		ifqSrc1:    make([]uint8, ifqCap),
		ifqSrc2:    make([]uint8, ifqCap),
		ifqAddr:    make([]uint64, ifqCap),
		ifqMispred: make([]bool, ifqCap),

		mshr:       make([]uint64, 0, cfg.MSHRs),
		memLatency: cfg.Caches.MemLatency,
	}
	for _, qc := range [...]struct {
		q   *issueQueue
		cap int
	}{{&c.intQ, cfg.IntQSize}, {&c.fpQ, cfg.FPQSize}, {&c.memQ, cfg.LSQSize}} {
		qc.q.ready = make([]uint64, 0, qc.cap)
		qc.q.pending = make([]uint64, 0, qc.cap)
		qc.q.minReady = unknownReady
	}
	return c, nil
}

// Clone returns an independent copy of the core in its current state: the
// ROB and fetch-queue rings, issue queues (with their capacities, so the
// copy stays allocation-free), MSHRs, predictor tables, cache ways and the
// trace cursor. Running either core leaves the other unchanged. Only a
// synthetic trace.Generator can be copied; a core fed by another source
// (a recorded trace.Reader) returns an error.
func (c *Core) Clone() (*Core, error) {
	gen, ok := c.gen.(*trace.Generator)
	if !ok {
		return nil, fmt.Errorf("cpu: cannot clone a core fed by %T", c.gen)
	}
	cp := *c
	cp.gen = gen.Clone()
	cp.bp = c.bp.Clone()
	cp.mem = c.mem.Clone()

	cp.robClass = slices.Clone(c.robClass)
	cp.robDst = slices.Clone(c.robDst)
	cp.robDep1 = slices.Clone(c.robDep1)
	cp.robDep2 = slices.Clone(c.robDep2)
	cp.robAddr = slices.Clone(c.robAddr)
	cp.robIssued = slices.Clone(c.robIssued)
	cp.robDoneAt = slices.Clone(c.robDoneAt)
	cp.robMispred = slices.Clone(c.robMispred)
	cp.robSeq = slices.Clone(c.robSeq)
	cp.robReadyAt = slices.Clone(c.robReadyAt)
	cp.robMissing = slices.Clone(c.robMissing)
	cp.wakeHead = slices.Clone(c.wakeHead)
	cp.wakeNext = slices.Clone(c.wakeNext)

	cp.ifqClass = slices.Clone(c.ifqClass)
	cp.ifqDst = slices.Clone(c.ifqDst)
	cp.ifqSrc1 = slices.Clone(c.ifqSrc1)
	cp.ifqSrc2 = slices.Clone(c.ifqSrc2)
	cp.ifqAddr = slices.Clone(c.ifqAddr)
	cp.ifqMispred = slices.Clone(c.ifqMispred)

	for _, q := range [...]*issueQueue{&cp.intQ, &cp.fpQ, &cp.memQ} {
		q.ready = withCap(q.ready)
		q.pending = withCap(q.pending)
	}
	cp.mshr = withCap(c.mshr)
	return &cp, nil
}

// withCap copies s into a fresh slice of the same length and capacity.
func withCap(s []uint64) []uint64 {
	return append(make([]uint64, 0, cap(s)), s...)
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Predictor exposes the branch predictor (for statistics).
func (c *Core) Predictor() *bpred.Predictor { return c.bp }

// Caches exposes the cache hierarchy (for statistics).
func (c *Core) Caches() *cache.Hierarchy { return c.mem }

// Cycle returns the total cycles simulated.
func (c *Core) Cycle() uint64 { return c.cycle }

// Committed returns the total instructions committed.
func (c *Core) Committed() uint64 { return c.committed }

// InFlight returns the number of instructions currently in the window
// (dispatched, not yet committed).
func (c *Core) InFlight() uint64 { return c.tail - c.head }

// IPC returns lifetime committed instructions per cycle.
func (c *Core) IPC() float64 {
	if c.cycle == 0 {
		return 0
	}
	return float64(c.committed) / float64(c.cycle)
}

// UseReferencePipeline toggles the cycle-at-a-time reference loop in place
// of the batched kernels. Both paths simulate the identical machine — the
// equivalence harness and FuzzCoreRun diff them instruction-for-instruction
// — so this is a validation hook, not a behavioral knob.
func (c *Core) UseReferencePipeline(on bool) { c.referencePath = on }

// SetFrequencyRatio adjusts the off-chip memory latency for the current
// clock, f/fNominal. On-chip latencies are expressed in cycles and scale
// with the clock automatically; main-memory time is fixed in nanoseconds,
// so at a lower clock it spans proportionally fewer cycles — one of the
// reasons DVS hurts memory-bound code less.
func (c *Core) SetFrequencyRatio(ratio float64) error {
	if !(ratio > 0) || ratio > 1 {
		return fmt.Errorf("cpu: frequency ratio %v outside (0,1]", ratio)
	}
	lat := int(float64(c.cfg.Caches.MemLatency)*ratio + 0.5)
	if lat < 1 {
		lat = 1
	}
	c.memLatency = lat
	return nil
}

// Gates bundles the gating fractions applied while running: Fetch is the
// paper's fetch-gating knob; Int, FP and Mem gate the corresponding issue
// stages (local toggling, §2 — the technique the paper found to confer
// little advantage over fetch gating; implemented here so that comparison
// can be reproduced).
type Gates struct {
	Fetch, Int, FP, Mem float64
}

func (g Gates) validate() error {
	for _, v := range [...]float64{g.Fetch, g.Int, g.FP, g.Mem} {
		if !stats.SameFloat(v, 0) && (v < 0 || v >= 1) {
			return fmt.Errorf("cpu: gate fraction %v outside [0,1)", v)
		}
	}
	return nil
}

// issueGatesZero reports whether no issue-domain gate is active; the fast
// kernels specialize on this (a gateTick with fraction 0 adds 0.0 to the
// accumulator and never gates, so eliding it is bit-exact).
func issueGatesZero(g Gates) bool {
	return stats.SameFloat(g.Int, 0) && stats.SameFloat(g.FP, 0) && stats.SameFloat(g.Mem, 0)
}

// Run simulates n cycles with the given fetch-gating fraction (0 = no
// gating, 0.5 = fetch gated every other cycle…), accumulating activity
// counts into act (which may be nil) and returning instructions committed
// during this call.
//
//dtmlint:allocfree
func (c *Core) Run(n uint64, gateFrac float64, act *Activity) (uint64, error) {
	return c.RunGated(n, Gates{Fetch: gateFrac}, act)
}

// RunGated is Run with the full set of gating knobs.
//
//dtmlint:allocfree
func (c *Core) RunGated(n uint64, gates Gates, act *Activity) (uint64, error) {
	return c.run(n, gates, act, nil)
}

// RunGatedProfiled is RunGated with per-stage attribution: on a sampled
// thermal step core passes the run's StageProfiler and the pipeline loop
// attributes each stage (commit, the three issue domains, dispatch,
// fetch, plus the bpred and cache accesses inside them) with chained
// monotonic timestamps. Unsampled steps take RunGated, so sp here is
// never a disabled profiler — but every call site still carries the
// hoisted `if sp != nil` guard, which is both the tracegate-enforced
// idiom and what keeps the profiler-off path (sp == nil) at one
// predicted branch per site.
//
// Laps are placed at batch boundaries, not per cycle: one fully-staged
// cycle opens each profileStride-cycle mini-batch and its per-stage times
// are extrapolated over the batch (obs.StageProfiler.LapN); the remaining
// cycles run through the batched kernels. See kernel.go.
//
//dtmlint:allocfree
func (c *Core) RunGatedProfiled(n uint64, gates Gates, act *Activity, sp *obs.StageProfiler) (uint64, error) {
	return c.run(n, gates, act, sp)
}

// run validates and dispatches to the pipeline loops: the batched kernels
// in kernel.go on the hot path, the cycle-at-a-time reference loop when
// requested, with profiler variants of each.
func (c *Core) run(n uint64, gates Gates, act *Activity, sp *obs.StageProfiler) (uint64, error) {
	if err := gates.validate(); err != nil {
		return 0, err
	}
	var sink Activity
	if act == nil {
		act = &sink
	}
	start := c.committed
	switch {
	case c.referencePath:
		c.runScalar(n, gates, act, sp)
	case sp != nil:
		c.runProfiled(n, gates, act, sp)
	default:
		c.runBatched(n, gates, act)
	}
	act.Cycles += n
	return c.committed - start, nil
}

// runScalar is the cycle-at-a-time reference loop: five stage calls per
// cycle, gate accumulators ticked every cycle, laps per cycle when sp is
// non-nil. The batched kernels must match it bit for bit.
func (c *Core) runScalar(n uint64, gates Gates, act *Activity, sp *obs.StageProfiler) {
	for i := uint64(0); i < n; i++ {
		c.cycle++
		if sp != nil {
			sp.Mark()
		}
		c.commit(act)
		if sp != nil {
			sp.Lap(obs.StageCPUCommit)
		}
		c.issue(gates, act, sp, 1)
		c.dispatch(act)
		if sp != nil {
			sp.Lap(obs.StageCPUDispatch)
		}
		c.fetch(gates.Fetch, act, sp, 1)
		if sp != nil {
			sp.Lap(obs.StageCPUFetch)
		}
	}
}

// gateTick advances a duty accumulator and reports whether this cycle is
// gated.
func gateTick(acc *float64, frac float64) bool {
	*acc += frac
	if *acc >= 1 {
		*acc--
		return true
	}
	return false
}

// commit retires completed instructions in order.
func (c *Core) commit(act *Activity) {
	for n := 0; n < c.cfg.CommitWidth && c.head < c.tail; n++ {
		i := c.head & c.robMask
		if !c.robIssued[i] || c.robDoneAt[i] > c.cycle {
			return
		}
		c.head++
		c.committed++
		act.Committed++
	}
}

// readyAtResolved computes the ready-at cycle of the ROB entry at slot i
// once every producer has issued (or committed): the max of the in-window
// producers' completion times, clamped to 1 because cycle counting starts
// at 1 and 0 is the "unknown" sentinel. A producer that commits before
// this runs contributes its doneAt instead of 0, which is equivalent: a
// committed producer's doneAt is already in the past at every cycle where
// the difference could be observed.
func (c *Core) readyAtResolved(i uint64) uint64 {
	ra := uint64(0)
	if dep := c.robDep1[i]; dep != 0 {
		if seq := dep - 1; seq >= c.head {
			ra = c.robDoneAt[seq&c.robMask]
		}
	}
	if dep := c.robDep2[i]; dep != 0 {
		if seq := dep - 1; seq >= c.head {
			if d := c.robDoneAt[seq&c.robMask]; d > ra {
				ra = d
			}
		}
	}
	if ra == 0 {
		ra = 1
	}
	return ra
}

// queueFor maps an instruction class to its issue queue.
func (c *Core) queueFor(cls trace.Class) *issueQueue {
	switch cls {
	case trace.Load, trace.Store:
		return &c.memQ
	case trace.FPAdd, trace.FPMul:
		return &c.fpQ
	default:
		return &c.intQ
	}
}

// wake walks the wakeup list of the producer at slot pi (which has just
// issued, so its doneAt is known): each waiter loses one outstanding
// producer, and a waiter whose count reaches zero gets its ready-at
// computed and its queue's watermark lowered. Waiters are always younger
// than the producer, so a wakeup never touches an entry an in-progress
// walk has already passed.
func (c *Core) wake(pi uint64) {
	n := c.wakeHead[pi]
	if n == 0 {
		return
	}
	c.wakeHead[pi] = 0
	for n != 0 {
		node := n - 1
		n = c.wakeNext[node]
		ci := uint64(node) >> 1
		if m := c.robMissing[ci] - 1; m != 0 {
			c.robMissing[ci] = m
			continue
		}
		c.robMissing[ci] = 0
		ra := c.readyAtResolved(ci)
		c.robReadyAt[ci] = ra
		q := c.queueFor(c.robClass[ci])
		q.unknown--
		q.enqueueReady(c.robSeq[ci], ra)
	}
}

// issue selects ready instructions oldest-first per queue, skipping
// domains whose issue stage is gated this cycle. scale is the profiler
// extrapolation factor (cycles represented by this lapped cycle; 1 on the
// reference path).
func (c *Core) issue(gates Gates, act *Activity, sp *obs.StageProfiler, scale uint64) {
	if !gateTick(&c.intGateAcc, gates.Int) {
		c.issueInt(act)
	}
	if sp != nil {
		sp.LapN(obs.StageCPUIssueInt, scale)
	}
	if !gateTick(&c.fpGateAcc, gates.FP) {
		c.issueFP(act)
	}
	if sp != nil {
		sp.LapN(obs.StageCPUIssueFP, scale)
	}
	if !gateTick(&c.memGateAcc, gates.Mem) {
		c.issueMem(act, sp, scale)
	}
	if sp != nil {
		sp.LapN(obs.StageCPUIssueMem, scale)
	}
}

// drainWalk finishes a walk: publishes the compacted ready list and exact
// watermark, then folds in wakeups parked during the scan.
func (q *issueQueue) drainWalk(out []uint64, minReady uint64, robReadyAt []uint64, robMask uint64) {
	q.ready = out
	q.minReady = minReady
	q.walking = false
	if len(q.pending) > 0 {
		for _, seq := range q.pending {
			q.insertReady(seq)
			q.noteReady(robReadyAt[seq&robMask])
		}
		q.pending = q.pending[:0]
	}
}

func (c *Core) issueInt(act *Activity) {
	q := &c.intQ
	q.walking = true
	w := q.ready
	out := w[:0]
	issued := 0
	minReady := uint64(unknownReady)
	width := c.cfg.IntIssueWidth
	for k, seq := range w {
		if issued >= width {
			// Width exhausted with backlog: bulk-keep the tail and force a
			// walk next cycle.
			out = append(out, w[k:]...) //dtmlint:allow allocguard in-place filter reuses the ready list backing array
			minReady = c.cycle
			break
		}
		i := seq & c.robMask
		ra := c.robReadyAt[i]
		if ra > c.cycle {
			out = append(out, seq) //dtmlint:allow allocguard in-place filter reuses the ready list backing array
			if ra < minReady {
				minReady = ra
			}
			continue
		}
		issued++
		c.robIssued[i] = true
		if c.robClass[i] == trace.IntMul {
			c.robDoneAt[i] = c.cycle + uint64(c.cfg.IntMulLatency)
			act.IntMulIssued++
		} else { // IntALU, Branch
			c.robDoneAt[i] = c.cycle + 1
		}
		act.IntIssued++
		c.countRegs(i, act)
		c.wake(i)
	}
	q.drainWalk(out, minReady, c.robReadyAt, c.robMask)
	c.issues += uint64(issued)
}

func (c *Core) issueFP(act *Activity) {
	q := &c.fpQ
	q.walking = true
	w := q.ready
	out := w[:0]
	issued := 0
	minReady := uint64(unknownReady)
	width := c.cfg.FPIssueWidth
	for k, seq := range w {
		if issued >= width {
			out = append(out, w[k:]...) //dtmlint:allow allocguard in-place filter reuses the ready list backing array
			minReady = c.cycle
			break
		}
		i := seq & c.robMask
		ra := c.robReadyAt[i]
		if ra > c.cycle {
			out = append(out, seq) //dtmlint:allow allocguard in-place filter reuses the ready list backing array
			if ra < minReady {
				minReady = ra
			}
			continue
		}
		issued++
		c.robIssued[i] = true
		if c.robClass[i] == trace.FPMul {
			c.robDoneAt[i] = c.cycle + uint64(c.cfg.FPMulLatency)
			act.FPMulIssued++
		} else {
			c.robDoneAt[i] = c.cycle + uint64(c.cfg.FPAddLatency)
			act.FPAddIssued++
		}
		c.countRegs(i, act)
		c.wake(i)
	}
	q.drainWalk(out, minReady, c.robReadyAt, c.robMask)
	c.issues += uint64(issued)
}

func (c *Core) issueMem(act *Activity, sp *obs.StageProfiler, scale uint64) {
	// Retire completed MSHRs first. When the minReady watermark skips this
	// walk the filter is deferred; the live set (t > cycle) is monotonic
	// in cycle, so filtering late yields the identical list.
	live := c.mshr[:0]
	for _, t := range c.mshr {
		if t > c.cycle {
			live = append(live, t) //dtmlint:allow allocguard in-place filter reuses the MSHR backing array
		}
	}
	c.mshr = live

	q := &c.memQ
	q.walking = true
	w := q.ready
	out := w[:0]
	issued := 0
	minReady := uint64(unknownReady)
	width := c.cfg.MemIssueWidth
	for k, seq := range w {
		if issued >= width {
			out = append(out, w[k:]...) //dtmlint:allow allocguard in-place filter reuses the ready list backing array
			minReady = c.cycle
			break
		}
		i := seq & c.robMask
		ra := c.robReadyAt[i]
		if ra > c.cycle {
			out = append(out, seq) //dtmlint:allow allocguard in-place filter reuses the ready list backing array
			if ra < minReady {
				minReady = ra
			}
			continue
		}
		if len(c.mshr) >= c.cfg.MSHRs {
			// No miss capacity left: structural stall for the memory
			// pipeline this cycle. The kept entry is ready now, so its
			// ready-at (≤ cycle) holds the watermark down and forces a walk
			// every cycle until an MSHR retires — an MSHR can retire
			// without an issue event, so the block must not be skipped
			// over.
			out = append(out, seq)
			if ra < minReady {
				minReady = ra
			}
			continue
		}
		issued++
		c.robIssued[i] = true
		// Carve the cache access out of the issue_mem interval so the
		// "cache" stage is a leaf and fractions stay disjoint.
		if sp != nil {
			sp.LapN(obs.StageCPUIssueMem, scale)
		}
		res := c.mem.Data(c.robAddr[i])
		if sp != nil {
			sp.LapN(obs.StageCache, scale)
		}
		act.DCacheAccesses++
		act.DTBAccesses++
		lat := c.cfg.Caches.L1D.Latency
		if !res.L1Hit {
			act.L2Accesses++
			lat += c.cfg.Caches.L2.Latency
			if !res.L2Hit {
				lat += c.memLatency
			}
			c.mshr = append(c.mshr, c.cycle+uint64(lat)) //dtmlint:allow allocguard bounded by cfg.MSHRs; cap settles during warm-up
		}
		if c.robClass[i] == trace.Store {
			// Stores complete into the store buffer immediately; the cache
			// fill proceeds in the background (MSHR accounted above).
			c.robDoneAt[i] = c.cycle + 1
		} else {
			c.robDoneAt[i] = c.cycle + uint64(lat)
		}
		act.MemIssued++
		c.countRegs(i, act)
		c.wake(i)
	}
	q.drainWalk(out, minReady, c.robReadyAt, c.robMask)
	c.issues += uint64(issued)
}

// countRegs charges register-file read/write energy for the issuing
// instruction in ROB slot i.
func (c *Core) countRegs(i uint64, act *Activity) {
	cls := c.robClass[i]
	c.countRegRead(c.robDep1[i], cls, act)
	c.countRegRead(c.robDep2[i], cls, act)
	if dst := c.robDst[i]; dst != trace.NoReg {
		if dst >= 32 {
			act.FPRegWrites++
		} else {
			act.IntRegWrites++
		}
	}
}

// countRegRead charges one source-operand read, banked by the destination
// register of the producing instruction (integer registers are 0..31, FP
// 32..63).
func (c *Core) countRegRead(dep uint64, cls trace.Class, act *Activity) {
	if dep == 0 {
		return
	}
	seq := dep - 1
	var reg uint8
	if seq < c.head {
		// Writer committed; its register bank is not recoverable from
		// the ROB, so attribute by consumer class.
		if cls.IsFP() {
			reg = 32
		}
	} else {
		reg = c.robDst[seq&c.robMask]
	}
	if reg >= 32 {
		act.FPRegReads++
	} else {
		act.IntRegReads++
	}
}

// dispatch moves instructions from the fetch queue into the window.
func (c *Core) dispatch(act *Activity) {
	for n := 0; n < c.cfg.DispatchWidth && c.ifqCount > 0; n++ {
		if c.tail-c.head >= uint64(c.cfg.ROBSize) {
			return // window full
		}
		fi := c.ifqHead & c.ifqMask
		cls := c.ifqClass[fi]
		// Issue-queue space.
		q := c.queueFor(cls)
		switch cls {
		case trace.Load, trace.Store:
			if q.size() >= c.cfg.LSQSize {
				return
			}
			act.MemDispatched++
		case trace.FPAdd, trace.FPMul:
			if q.size() >= c.cfg.FPQSize {
				return
			}
			act.FPDispatched++
		default:
			if q.size() >= c.cfg.IntQSize {
				return
			}
			act.IntDispatched++
		}
		seq := c.tail
		c.tail++
		i := seq & c.robMask
		dst := c.ifqDst[fi]
		c.robClass[i] = cls
		c.robDst[i] = dst
		c.robAddr[i] = c.ifqAddr[fi]
		c.robMispred[i] = c.ifqMispred[fi]
		c.robIssued[i] = false
		c.robDoneAt[i] = 0
		c.robSeq[i] = seq
		var d1, d2 uint64
		if s := c.ifqSrc1[fi]; s != trace.NoReg {
			d1 = c.regWriter[s]
		}
		if s := c.ifqSrc2[fi]; s != trace.NoReg {
			d2 = c.regWriter[s]
		}
		c.robDep1[i] = d1
		c.robDep2[i] = d2
		if dst != trace.NoReg {
			c.regWriter[dst] = seq + 1
		}
		// Register with un-issued producers' wakeup lists; if every
		// producer has already issued (or committed), the ready-at is
		// known right now and the entry goes straight to the ready list
		// (it is the youngest, so insertion is an append).
		missing := uint8(0)
		if d1 != 0 {
			if p := d1 - 1; p >= c.head {
				if pi := p & c.robMask; !c.robIssued[pi] {
					c.wakeNext[i<<1] = c.wakeHead[pi]
					c.wakeHead[pi] = int32(i<<1) + 1
					missing++
				}
			}
		}
		if d2 != 0 {
			if p := d2 - 1; p >= c.head {
				if pi := p & c.robMask; !c.robIssued[pi] {
					c.wakeNext[i<<1|1] = c.wakeHead[pi]
					c.wakeHead[pi] = int32(i<<1|1) + 1
					missing++
				}
			}
		}
		c.robMissing[i] = missing
		if missing == 0 {
			ra := c.readyAtResolved(i)
			c.robReadyAt[i] = ra
			q.enqueueReady(seq, ra)
		} else {
			c.robReadyAt[i] = 0
			q.unknown++
		}
		if c.robMispred[i] && c.blockState == blockWaitDispatch {
			c.blockState = blockWaitResolve
			c.blockSeq = seq
		}
		c.ifqHead = (c.ifqHead + 1) & c.ifqMask
		c.ifqCount--
	}
}

// fetch brings instructions into the fetch queue, subject to gating,
// I-cache misses and branch redirects.
func (c *Core) fetch(gateFrac float64, act *Activity, sp *obs.StageProfiler, scale uint64) {
	// Resolve a pending branch redirect.
	if c.blockState == blockWaitResolve {
		i := c.blockSeq & c.robMask
		resolved := c.blockSeq < c.head ||
			(c.robIssued[i] && c.robDoneAt[i]+uint64(c.cfg.MispredictPenalty) <= c.cycle)
		if resolved {
			c.blockState = blockNone
		}
	}

	// Fetch gating: a deterministic duty-cycle pattern over wall cycles,
	// exactly like a hardware toggling counter. It applies regardless of
	// other stalls — which is why mild gating often hides inside cycles the
	// front end could not have used anyway.
	c.gateAcc += gateFrac
	if c.gateAcc >= 1 {
		c.gateAcc--
		act.GatedCycles++
		return
	}

	if c.cycle < c.fetchStallUntil {
		return // I-cache miss in service
	}
	if c.blockState != blockNone {
		return // waiting on a mispredicted branch
	}
	free := c.cfg.IFQSize - c.ifqCount
	if free == 0 {
		return
	}
	slots := c.cfg.FetchWidth
	if free < slots {
		slots = free
	}

	if !c.pendingValid {
		c.gen.Next(&c.pending)
		c.pendingValid = true
	}

	// One I-cache (and I-TLB) access per fetch group.
	if sp != nil {
		sp.LapN(obs.StageCPUFetch, scale)
	}
	res := c.mem.Instruction(c.pending.PC)
	if sp != nil {
		sp.LapN(obs.StageCache, scale)
	}
	act.FetchGroups++
	act.ITBAccesses++
	if !res.L1Hit {
		act.L2Accesses++
		act.ICacheMisses++
		lat := c.cfg.Caches.L1I.Latency + c.cfg.Caches.L2.Latency
		if !res.L2Hit {
			lat += c.memLatency
		}
		c.fetchStallUntil = c.cycle + uint64(lat)
		return
	}

	for i := 0; i < slots; i++ {
		if !c.pendingValid {
			c.gen.Next(&c.pending)
			c.pendingValid = true
		}
		inst := c.pending
		c.pendingValid = false

		mispredict := false
		endGroup := false
		if inst.Class == trace.Branch {
			act.BPredAccesses++
			if sp != nil {
				sp.LapN(obs.StageCPUFetch, scale)
			}
			pred := c.bp.Predict(inst.PC)
			correct := c.bp.Update(inst.PC, inst.Taken)
			if sp != nil {
				sp.LapN(obs.StageBPred, scale)
			}
			mispredict = !correct
			if mispredict {
				c.blockState = blockWaitDispatch
				endGroup = true
			} else if pred {
				// Correctly predicted taken branch still ends the fetch
				// group (no fetching past a taken branch in one cycle).
				endGroup = true
			}
		}
		tailIdx := (c.ifqHead + c.ifqCount) & c.ifqMask
		c.ifqClass[tailIdx] = inst.Class
		c.ifqDst[tailIdx] = inst.Dst
		c.ifqSrc1[tailIdx] = inst.Src1
		c.ifqSrc2[tailIdx] = inst.Src2
		c.ifqAddr[tailIdx] = inst.Addr
		c.ifqMispred[tailIdx] = mispredict
		c.ifqCount++
		act.Fetched++
		if endGroup {
			return
		}
	}
}
