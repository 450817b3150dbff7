package cache

import (
	"math/rand"
	"testing"
)

func small(t *testing.T) *Cache {
	t.Helper()
	c, err := New("test", Config{SizeBytes: 1024, LineBytes: 64, Ways: 2, Latency: 3})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 2, Latency: 1},
		{SizeBytes: 1024, LineBytes: 60, Ways: 2, Latency: 1},  // line not pow2
		{SizeBytes: 1000, LineBytes: 64, Ways: 2, Latency: 1},  // size not multiple
		{SizeBytes: 1024, LineBytes: 64, Ways: 3, Latency: 1},  // lines not divisible
		{SizeBytes: 1024, LineBytes: 64, Ways: 2, Latency: -1}, // negative latency
		{SizeBytes: 1024, LineBytes: 1, Ways: 2, Latency: 1},   // tags would reach emptyWay
	}
	for i, cfg := range cases {
		if _, err := New("bad", cfg); err == nil {
			t.Errorf("case %d: accepted invalid config %+v", i, cfg)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := small(t)
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("second access missed")
	}
	if !c.Access(0x1010) {
		t.Error("same-line access missed")
	}
	acc, miss := c.Stats()
	if acc != 3 || miss != 1 {
		t.Errorf("stats = (%d, %d), want (3, 1)", acc, miss)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way cache with 8 sets of 64B lines: addresses 0, 512, 1024 map to
	// set 0 (stride = sets*line = 512).
	c := small(t)
	c.Access(0)    // miss, fills way
	c.Access(512)  // miss, fills other way
	c.Access(0)    // hit, makes 512 the LRU
	c.Access(1024) // miss, evicts 512
	if !c.Access(0) {
		t.Error("most-recently-used line was evicted")
	}
	if c.Access(512) {
		t.Error("LRU line was not evicted")
	}
}

func TestMissRateSmallWorkingSet(t *testing.T) {
	c := small(t) // 1 KB
	rng := rand.New(rand.NewSource(1))
	// Working set of 512B fits: after warmup, no misses.
	for i := 0; i < 200; i++ {
		c.Access(uint64(rng.Intn(512)))
	}
	c.ResetCounters()
	for i := 0; i < 2000; i++ {
		c.Access(uint64(rng.Intn(512)))
	}
	if mr := c.MissRate(); mr > 0.01 {
		t.Errorf("resident working set miss rate %v, want ≈0", mr)
	}
}

func TestMissRateHugeWorkingSet(t *testing.T) {
	c := small(t) // 1 KB cache, 1 MB working set: essentially all misses.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		c.Access(uint64(rng.Intn(1 << 20)))
	}
	if mr := c.MissRate(); mr < 0.90 {
		t.Errorf("thrashing miss rate %v, want ≥0.9", mr)
	}
}

func TestMissRateNoAccesses(t *testing.T) {
	c := small(t)
	if c.MissRate() != 0 {
		t.Error("MissRate nonzero with no accesses")
	}
}

func TestResetCountersKeepsContents(t *testing.T) {
	c := small(t)
	c.Access(0x40)
	c.ResetCounters()
	if !c.Access(0x40) {
		t.Error("contents lost by ResetCounters")
	}
	acc, miss := c.Stats()
	if acc != 1 || miss != 0 {
		t.Errorf("stats after reset = (%d,%d), want (1,0)", acc, miss)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchy())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultHierarchy()

	// Cold data access: full path.
	r := h.Data(0x123456)
	wantMiss := cfg.L1D.Latency + cfg.L2.Latency + cfg.MemLatency
	if r.Latency != wantMiss || r.L1Hit || r.L2Hit {
		t.Errorf("cold access = %+v, want latency %d, both misses", r, wantMiss)
	}
	// Now resident in both levels.
	r = h.Data(0x123456)
	if r.Latency != cfg.L1D.Latency || !r.L1Hit {
		t.Errorf("warm access = %+v, want L1 hit at %d", r, cfg.L1D.Latency)
	}
	// Instruction path works the same way through its own L1.
	ri := h.Instruction(0x123456)
	// L2 already holds the line from the data access (unified L2).
	if ri.L1Hit {
		t.Error("instruction hit in L1I without prior fetch")
	}
	if !ri.L2Hit {
		t.Error("instruction missed in unified L2 despite prior data access")
	}
	if want := cfg.L1I.Latency + cfg.L2.Latency; ri.Latency != want {
		t.Errorf("instruction L2-hit latency %d, want %d", ri.Latency, want)
	}
}

func TestHierarchyValidation(t *testing.T) {
	cfg := DefaultHierarchy()
	cfg.MemLatency = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("accepted zero memory latency")
	}
	cfg = DefaultHierarchy()
	cfg.L1I.Ways = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("accepted invalid L1I")
	}
}

func TestHierarchyResetCounters(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchy())
	if err != nil {
		t.Fatal(err)
	}
	h.Data(1)
	h.Instruction(2)
	h.ResetCounters()
	if a, _ := h.L1D.Stats(); a != 0 {
		t.Error("L1D stats not reset")
	}
	if a, _ := h.L1I.Stats(); a != 0 {
		t.Error("L1I stats not reset")
	}
	if a, _ := h.L2.Stats(); a != 0 {
		t.Error("L2 stats not reset")
	}
}

func TestAssociativityConflict(t *testing.T) {
	// Direct-mapped behaviour check with Ways=1: two conflicting lines
	// alternate and always miss.
	c, err := New("dm", Config{SizeBytes: 512, LineBytes: 64, Ways: 1, Latency: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := uint64(0), uint64(512)
	c.Access(a)
	c.Access(b)
	c.ResetCounters()
	for i := 0; i < 100; i++ {
		c.Access(a)
		c.Access(b)
	}
	if mr := c.MissRate(); mr < 0.999 {
		t.Errorf("conflicting lines in direct-mapped cache: miss rate %v, want 1", mr)
	}
}
