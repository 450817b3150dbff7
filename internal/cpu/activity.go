package cpu

import (
	"fmt"

	"hybriddtm/internal/floorplan"
)

// Activity accumulates per-unit event counts over an interval of cycles.
// The power model converts these into per-block activity factors; the
// simulator resets them every thermal step (the paper averages power over
// 10 000-cycle intervals, §3).
type Activity struct {
	Cycles      uint64
	Committed   uint64
	Fetched     uint64
	GatedCycles uint64

	FetchGroups   uint64 // = I-cache and I-TLB accesses
	ICacheMisses  uint64
	BPredAccesses uint64

	IntDispatched uint64
	FPDispatched  uint64
	MemDispatched uint64

	IntIssued    uint64 // includes branches and multiplies
	IntMulIssued uint64
	FPAddIssued  uint64
	FPMulIssued  uint64
	MemIssued    uint64 // = D-cache and D-TLB accesses

	IntRegReads, IntRegWrites uint64
	FPRegReads, FPRegWrites   uint64

	L2Accesses uint64
}

// Reset zeroes all counters.
func (a *Activity) Reset() { *a = Activity{} }

// Add accumulates another interval's counts.
func (a *Activity) Add(b *Activity) {
	a.Cycles += b.Cycles
	a.Committed += b.Committed
	a.Fetched += b.Fetched
	a.GatedCycles += b.GatedCycles
	a.FetchGroups += b.FetchGroups
	a.ICacheMisses += b.ICacheMisses
	a.BPredAccesses += b.BPredAccesses
	a.IntDispatched += b.IntDispatched
	a.FPDispatched += b.FPDispatched
	a.MemDispatched += b.MemDispatched
	a.IntIssued += b.IntIssued
	a.IntMulIssued += b.IntMulIssued
	a.FPAddIssued += b.FPAddIssued
	a.FPMulIssued += b.FPMulIssued
	a.MemIssued += b.MemIssued
	a.IntRegReads += b.IntRegReads
	a.IntRegWrites += b.IntRegWrites
	a.FPRegReads += b.FPRegReads
	a.FPRegWrites += b.FPRegWrites
	a.L2Accesses += b.L2Accesses
}

// IPC returns committed instructions per cycle for the interval.
func (a *Activity) IPC() float64 {
	if a.Cycles == 0 {
		return 0
	}
	return float64(a.Committed) / float64(a.Cycles)
}

// BlockActivity converts the counters into per-floorplan-block activity
// factors in [0,1]: events divided by the block's maximum event rate times
// the interval length. The mapping mirrors Wattch's unit accounting for the
// EV6 floorplan; the floorplan must contain all EV6 block names.
//
// dst is allocated if nil or short, and returned.
func (a *Activity) BlockActivity(fp *floorplan.Floorplan, dst []float64) ([]float64, error) {
	n := fp.NumBlocks()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	if a.Cycles == 0 {
		return dst, nil
	}
	cyc := float64(a.Cycles)
	set := func(name string, events uint64, maxRate float64) error { // non-escaping closure, stack-allocated (AllocsPerRun==0 in core alloc_test)
		i := fp.Index(name)
		if i < 0 {
			return fmt.Errorf("cpu: floorplan lacks block %q", name)
		}
		v := float64(events) / (maxRate * cyc)
		if v > 1 {
			v = 1
		}
		dst[i] = v
		return nil
	}
	// Maximum event rates per cycle, from the machine widths: e.g. the
	// integer register file serves up to 4 instructions × (2 reads + 1
	// write) per cycle; the data cache has 2 ports; the L2 accepts one
	// access every 4 cycles per bank, split across its 3 banks.
	l2PerBank := float64(a.L2Accesses) / 3
	steps := [...]struct {
		name    string
		events  uint64
		maxRate float64
	}{
		{floorplan.ICache, a.FetchGroups, 1},
		{floorplan.BPred, a.BPredAccesses, 2},
		{floorplan.ITB, a.FetchGroups, 1},
		{floorplan.IntMap, a.IntDispatched, 4},
		{floorplan.FPMap, a.FPDispatched, 4},
		{floorplan.IntQ, a.IntIssued, 4},
		{floorplan.FPQ, a.FPAddIssued + a.FPMulIssued, 2},
		{floorplan.LdStQ, a.MemIssued, 2},
		{floorplan.IntReg, a.IntRegReads + a.IntRegWrites, 12},
		{floorplan.FPReg, a.FPRegReads + a.FPRegWrites, 6},
		{floorplan.IntExec, a.IntIssued, 4},
		{floorplan.FPAdd, a.FPAddIssued, 1},
		{floorplan.FPMul, a.FPMulIssued, 1},
		{floorplan.DCache, a.MemIssued, 2},
		{floorplan.DTB, a.MemIssued, 2},
		{floorplan.L2, uint64(l2PerBank), 0.25},
		{floorplan.L2Left, uint64(l2PerBank), 0.25},
		{floorplan.L2Right, uint64(l2PerBank), 0.25},
	}
	for _, s := range steps {
		if err := set(s.name, s.events, s.maxRate); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
