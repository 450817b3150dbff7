// Package cache implements the set-associative cache hierarchy used by the
// CPU model: split 64 KB L1 instruction and data caches backed by a large
// unified on-die L2 (the paper's chip replaces the 21364's multiprocessor
// logic with additional L2, §3). Caches are timing models: they track
// hits/misses and report access latency; data contents are not simulated.
package cache

import (
	"fmt"
	"slices"
)

// Config sizes one cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
	Latency   int // access latency in cycles on a hit
}

func (c Config) validate(name string) error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 || c.Latency < 0 {
		return fmt.Errorf("cache: %s: non-positive parameter in %+v", name, c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: %s: line size %d not a power of two", name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: %s: size %d not a multiple of line size %d", name, c.SizeBytes, c.LineBytes)
	}
	sets := lines / c.Ways
	if sets <= 0 || sets*c.Ways != lines {
		return fmt.Errorf("cache: %s: %d lines not divisible into %d ways", name, lines, c.Ways)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: %s: set count %d not a power of two", name, sets)
	}
	return nil
}

// line is one way. lastUse == 0 marks an invalid way: the LRU clock is
// incremented before every access, so a filled way never reads 0.
type line struct {
	tag     uint64
	lastUse uint64
}

// Cache is one level of set-associative cache with true LRU replacement.
type Cache struct {
	cfg      Config
	lines    []line // set-major: set s is lines[s*ways : (s+1)*ways]
	ways     uint64
	setMask  uint64
	lineBits uint
	tick     uint64

	accesses uint64
	misses   uint64
}

// New builds an empty cache.
func New(name string, cfg Config) (*Cache, error) {
	if err := cfg.validate(name); err != nil {
		return nil, err
	}
	nSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	lb := uint(0)
	for 1<<lb < cfg.LineBytes {
		lb++
	}
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, nSets*cfg.Ways),
		ways:     uint64(cfg.Ways),
		setMask:  uint64(nSets - 1),
		lineBits: lb,
	}, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Clone returns an independent copy: the same ways, LRU clock and
// counters.
func (c *Cache) Clone() *Cache {
	cp := *c
	cp.lines = slices.Clone(c.lines)
	return &cp
}

// Access looks up addr, updates LRU state, allocates on miss, and reports
// whether it hit.
func (c *Cache) Access(addr uint64) bool {
	c.tick++
	c.accesses++
	blk := addr >> c.lineBits
	base := (blk & c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	tag := blk >> 0 // full block address as tag keeps aliasing impossible
	for i := range set {
		if set[i].lastUse != 0 && set[i].tag == tag {
			set[i].lastUse = c.tick
			return true
		}
	}
	c.misses++
	// Allocate into the invalid or least-recently-used way.
	victim := 0
	for i := range set {
		if set[i].lastUse == 0 {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	set[victim] = line{tag: tag, lastUse: c.tick}
	return false
}

// Stats returns accesses and misses since construction or ResetCounters.
func (c *Cache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// MissRate returns misses per access (0 if never accessed).
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// ResetCounters clears the statistics but keeps cache contents.
func (c *Cache) ResetCounters() { c.accesses, c.misses = 0, 0 }

// HierarchyConfig sizes the full hierarchy.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	MemLatency   int // cycles for an L2 miss
}

// DefaultHierarchy returns the EV6-flavoured hierarchy: 64 KB 2-way L1s
// (64 B lines), 4 MB 8-way on-die L2, and a 200-cycle memory path at 3 GHz.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1I:        Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 2, Latency: 1},
		L1D:        Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 2, Latency: 3},
		L2:         Config{SizeBytes: 4 << 20, LineBytes: 64, Ways: 8, Latency: 15},
		MemLatency: 200,
	}
}

// Hierarchy is the two-level cache system. It is shared by instruction and
// data streams at the L2.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	memLatency   int
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if cfg.MemLatency <= 0 {
		return nil, fmt.Errorf("cache: memory latency %d must be positive", cfg.MemLatency)
	}
	l1i, err := New("L1I", cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := New("L1D", cfg.L1D)
	if err != nil {
		return nil, err
	}
	l2, err := New("L2", cfg.L2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1I: l1i, L1D: l1d, L2: l2, memLatency: cfg.MemLatency}, nil
}

// AccessResult describes one memory access's timing.
type AccessResult struct {
	Latency int  // total cycles to data
	L1Hit   bool // hit in the first-level cache
	L2Hit   bool // hit in L2 (only meaningful when !L1Hit)
}

// Instruction looks up an instruction fetch address.
func (h *Hierarchy) Instruction(addr uint64) AccessResult {
	return h.access(h.L1I, addr)
}

// Data looks up a load/store address.
func (h *Hierarchy) Data(addr uint64) AccessResult {
	return h.access(h.L1D, addr)
}

func (h *Hierarchy) access(l1 *Cache, addr uint64) AccessResult {
	if l1.Access(addr) {
		return AccessResult{Latency: l1.cfg.Latency, L1Hit: true}
	}
	if h.L2.Access(addr) {
		return AccessResult{Latency: l1.cfg.Latency + h.L2.cfg.Latency, L2Hit: true}
	}
	return AccessResult{Latency: l1.cfg.Latency + h.L2.cfg.Latency + h.memLatency}
}

// Clone returns an independent copy of the hierarchy.
func (h *Hierarchy) Clone() *Hierarchy {
	return &Hierarchy{L1I: h.L1I.Clone(), L1D: h.L1D.Clone(), L2: h.L2.Clone(), memLatency: h.memLatency}
}

// ResetCounters clears statistics across all levels.
func (h *Hierarchy) ResetCounters() {
	h.L1I.ResetCounters()
	h.L1D.ResetCounters()
	h.L2.ResetCounters()
}
