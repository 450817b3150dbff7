package cpu

// This file holds the batched pipeline kernels: the hot paths behind
// Run/RunGated. They advance the machine over runs of cycles between
// DTM-visible boundaries with the per-cycle bookkeeping the reference loop
// pays — gate-fraction accumulator math, fruitless issue-queue walks —
// hoisted out of the inner loop or elided where provably a no-op. Every
// elision below is bit-exact, not approximate:
//
//   - A gateTick with fraction 0 adds 0.0 to its accumulator and, since the
//     accumulator invariant is acc ∈ [0,1), never gates — so zero-fraction
//     domains skip the accumulator math entirely.
//   - An issue-queue walk is skipped while cycle < minReady, the queue's
//     ready watermark: a lower bound on the earliest cycle any queued
//     entry can issue. Walks recompute it exactly; dispatch and producer
//     wakeups only ever lower it; ready-but-unselected backlogs (width or
//     MSHR limits) pin it at or below the current cycle. A skipped walk
//     would select nothing and change nothing.
//   - Idle fast-forward jumps over cycles in which provably no stage can
//     act (commit blocked on an in-flight completion, all waiters settled,
//     dispatch starved or structurally blocked, fetch stalled/blocked).
//     Fetch-gating accumulator ticks across skipped cycles are replayed
//     with the identical float additions.
//
// The equivalence harness (equivalence_test.go, core's
// TestScalarBatchedEquivalence) and FuzzCoreRun diff these kernels against
// the cycle-at-a-time reference loop counter-for-counter.

// runBatched picks the kernel for the gate configuration. Issue-domain
// gating (local toggling) is a research path measured for the paper's §2
// comparison only; it takes the reference loop, which ticks every
// accumulator each cycle.
func (c *Core) runBatched(n uint64, gates Gates, act *Activity) {
	if !issueGatesZero(gates) {
		c.runScalar(n, gates, act)
		return
	}
	c.runFast(n, gates.Fetch, act)
}

// runFast is the kernel for idle issue domains, with or without fetch
// gating — the configuration every DTM policy produces. The fetch-gate
// accumulator must advance every cycle (its duty pattern is defined over
// wall cycles), so idle fast-forward replays the accumulator additions
// across skipped cycles.
func (c *Core) runFast(n uint64, frac float64, act *Activity) {
	end := c.cycle + n
	for c.cycle < end {
		c.cycle++
		h0, t0, i0, f0 := c.head, c.tail, c.issues, act.FetchGroups
		c.commit()
		if q := &c.queues[qInt]; c.cycle >= q.minReady {
			c.issueExec(q, c.cfg.IntIssueWidth)
		}
		if q := &c.queues[qFP]; c.cycle >= q.minReady {
			c.issueExec(q, c.cfg.FPIssueWidth)
		}
		if c.cycle >= c.queues[qMem].minReady {
			c.issueMem(act)
		}
		if c.ifqCount > 0 {
			c.dispatch()
		}
		c.fetch(frac, act)
		if c.head == h0 && c.tail == t0 && c.issues == i0 && act.FetchGroups == f0 {
			c.idleSkip(end, frac, act)
		}
	}
}

// idleSkip advances the cycle counter over a provably-dead stretch. The
// caller has just executed a cycle in which no stage acted (no commit, no
// issue, no dispatch, no fetch group). Since nothing changed, each stage's
// earliest possible next action is computable now:
//
//   - commit: the completion time of the (issued) window head; an
//     un-issued head wakes only via an issue, bounded below.
//   - issue: each queue's minReady watermark. An entry with unknown
//     readiness waits on an un-issued producer, and the oldest un-issued
//     instruction always has a known ready-at (all its producers have
//     issued, so the wakeup computed it), so the minimum over the
//     watermarks is finite whenever any queue is non-empty. A queue held
//     at the MSHR structural block has minReady ≤ cycle, which vetoes the
//     skip below.
//   - dispatch: starved (woken by fetch) or blocked on the window/an issue
//     queue (woken by commit/issue, both bounded above — and both run
//     before dispatch within a cycle, so landing exactly on the wake cycle
//     loses nothing).
//   - fetch: the I-cache stall expiry, or the mispredict resolution time
//     when the blocking branch has issued; otherwise woken by
//     issue/dispatch, bounded above.
//
// The jump lands on min(candidates); intervening cycles are dead for every
// stage. Landing early (a candidate that wakes only one stage) just means
// one more dead-cycle evaluation and another skip. With fetch gating
// active, a cycle is dead only if fetch was also structurally unable to
// act (gating alone proves nothing about the next cycle), and the
// accumulator ticks for skipped cycles are replayed exactly.
func (c *Core) idleSkip(end uint64, frac float64, act *Activity) {
	if !(c.cycle < c.fetchStallUntil || c.blockState != blockNone || c.ifqCount >= c.cfg.IFQSize) {
		// Fetch could act next cycle (this one it was gated away or the
		// stall expired mid-cycle); no stretch to skip.
		return
	}
	t := uint64(unknownReady)
	if c.head != c.tail {
		if i := c.head & c.robMask; c.robIssued[i] {
			t = c.robDoneAt[i]
		}
	}
	for k := range c.queues {
		t = min(t, c.queues[k].minReady)
	}
	if c.cycle < c.fetchStallUntil {
		if c.fetchStallUntil < t {
			t = c.fetchStallUntil
		}
	} else if c.blockState == blockWaitResolve {
		if i := c.blockSeq & c.robMask; c.blockSeq >= c.head && c.robIssued[i] {
			if r := c.robDoneAt[i] + uint64(c.cfg.MispredictPenalty); r < t {
				t = r
			}
		}
	}
	if t == unknownReady || t <= c.cycle+1 {
		return
	}
	nc := t - 1
	if nc > end {
		nc = end
	}
	if frac > 0 {
		// Replay the per-cycle fetch-gate accumulator ticks the skipped
		// cycles would have performed — the identical repeated additions,
		// so the duty pattern stays bit-exact.
		for k := c.cycle; k < nc; k++ {
			c.gateAcc += frac
			if c.gateAcc >= 1 {
				c.gateAcc--
				act.GatedCycles++
			}
		}
	}
	c.cycle = nc
}
