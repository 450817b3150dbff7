package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// refCache is the reference Cache must agree with access for access: the
// textbook timestamp LRU. Every way carries the clock value of its last
// use (0 marks an empty way; the clock advances before every access, so a
// filled way never reads 0), and a miss fills the first empty way, else
// the way with the smallest lastUse.
type refCache struct {
	lines    []refLine // set-major, like Cache.tags
	ways     uint64
	setMask  uint64
	lineBits uint
	tick     uint64

	accesses, misses uint64
}

type refLine struct{ tag, lastUse uint64 }

func newRef(c *Cache) *refCache {
	return &refCache{
		lines:    make([]refLine, len(c.tags)),
		ways:     c.ways,
		setMask:  c.setMask,
		lineBits: c.lineBits,
	}
}

func (c *refCache) clone() *refCache {
	cp := *c
	cp.lines = append([]refLine(nil), c.lines...)
	return &cp
}

func (c *refCache) access(addr uint64) bool {
	c.tick++
	c.accesses++
	tag := addr >> c.lineBits
	base := (tag & c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	for i := range set {
		if set[i].lastUse != 0 && set[i].tag == tag {
			set[i].lastUse = c.tick
			return true
		}
	}
	c.misses++
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
	set[victim] = refLine{tag: tag, lastUse: c.tick}
	return false
}

// agree drives c and ref with addrs and reports the first access on which
// they disagree on hit or miss, or on their counters afterwards.
func agree(c *Cache, ref *refCache, addrs []uint64) error {
	for k, a := range addrs {
		if got, want := c.Access(a), ref.access(a); got != want {
			return fmt.Errorf("access %d (addr %#x): hit=%v, reference hit=%v", k, a, got, want)
		}
	}
	if acc, miss := c.Stats(); acc != ref.accesses || miss != ref.misses {
		return fmt.Errorf("Stats() = (%d, %d), reference (%d, %d)", acc, miss, ref.accesses, ref.misses)
	}
	return nil
}

// checkOracle runs addrs through a fresh cache of cfg and the reference,
// clones both halfway, and checks that the clones continue exactly as the
// originals did. It returns the original cache after the whole stream.
func checkOracle(cfg Config, addrs []uint64) (*Cache, error) {
	c, err := New("oracle", cfg)
	if err != nil {
		return nil, err
	}
	ref := newRef(c)
	half := len(addrs) / 2
	if err := agree(c, ref, addrs[:half]); err != nil {
		return nil, fmt.Errorf("first half: %w", err)
	}
	cc, rc := c.Clone(), ref.clone()
	if err := agree(c, ref, addrs[half:]); err != nil {
		return nil, fmt.Errorf("second half: %w", err)
	}
	if err := agree(cc, rc, addrs[half:]); err != nil {
		return nil, fmt.Errorf("clone: %w", err)
	}
	if cc.accesses != c.accesses || cc.misses != c.misses {
		return nil, fmt.Errorf("clone counted (%d, %d), original (%d, %d)", cc.accesses, cc.misses, c.accesses, c.misses)
	}
	return c, nil
}

// oracleConfig is a cache of sets×ways lines of lineBytes each.
func oracleConfig(ways, lineBytes, sets int) Config {
	return Config{SizeBytes: sets * ways * lineBytes, LineBytes: lineBytes, Ways: ways, Latency: 1}
}

// TestLRUOracle checks the recency-ordered sets against the timestamp
// LRU on random streams over about twice as many blocks as the cache
// holds, so sets fill, evict and re-hit. Addresses with the top bit set
// exercise tags next to the empty-way marker.
func TestLRUOracle(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8} {
		for _, lineBytes := range []int{2, 64} {
			for _, sets := range []int{1, 4} {
				cfg := oracleConfig(ways, lineBytes, sets)
				t.Run(fmt.Sprintf("ways=%d/line=%d/sets=%d", ways, lineBytes, sets), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(ways*1000 + lineBytes*10 + sets)))
					blocks := 2 * sets * ways
					addrs := make([]uint64, 20_000)
					for i := range addrs {
						a := uint64(rng.Intn(blocks)*lineBytes + rng.Intn(lineBytes))
						if rng.Intn(8) == 0 {
							a |= 1 << 63
						}
						addrs[i] = a
					}
					c, err := checkOracle(cfg, addrs)
					if err != nil {
						t.Fatal(err)
					}
					// The stream must have exercised hits and evictions.
					acc, miss := c.Stats()
					if miss <= uint64(sets*ways) || miss == acc {
						t.Errorf("stream too easy: %d misses of %d accesses into %d lines", miss, acc, sets*ways)
					}
				})
			}
		}
	}
}

// FuzzLRUOracle is TestLRUOracle over fuzzer-chosen geometry and streams.
// The first byte picks ways, line size and set count; every following
// pair of bytes is one access: a block among 128, with the top bit of the
// pair's first byte setting the address's top bit, and an offset within
// the line.
func FuzzLRUOracle(f *testing.F) {
	f.Add([]byte{0x00, 1, 0, 2, 0, 1, 0, 3, 0})
	f.Add([]byte{0x1f, 0, 0, 8, 1, 16, 2, 0, 3, 8, 4, 24, 5, 0, 6})
	f.Add([]byte{0x2b, 0x80, 0xff, 0x00, 0x01, 0x80, 0xfe, 0x40, 0x40, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ways := 1 << (data[0] & 3)      // 1, 2, 4, 8
		sets := 1 << (data[0] >> 3 & 3) // 1, 2, 4, 8
		lineBytes := 2
		if data[0]&4 != 0 {
			lineBytes = 64
		}
		var addrs []uint64
		for i := 1; i+1 < len(data); i += 2 {
			a := uint64(data[i]&0x7f)*uint64(lineBytes) + uint64(data[i+1])%uint64(lineBytes)
			if data[i]&0x80 != 0 {
				a |= 1 << 63
			}
			addrs = append(addrs, a)
		}
		if _, err := checkOracle(oracleConfig(ways, lineBytes, sets), addrs); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHierarchyFootprint pins what a core's cache model weighs: each way
// is its 8-byte block address and nothing else, so the default hierarchy
// allocates at most 8 B per line plus 1 KiB for the structs around them.
// A field added to a way doubles the footprint and fails here.
func TestHierarchyFootprint(t *testing.T) {
	cfg := DefaultHierarchy()
	lines := 0
	for _, c := range []Config{cfg.L1I, cfg.L1D, cfg.L2} {
		lines += c.SizeBytes / c.LineBytes
	}
	limit := uint64(8*lines + 1024)
	const builds = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		if _, err := NewHierarchy(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / builds
	t.Logf("NewHierarchy(DefaultHierarchy()) allocates %d B for %d lines (limit %d B)", got, lines, limit)
	if got > limit {
		t.Errorf("NewHierarchy allocates %d B, want at most %d (8 B per line + 1 KiB)", got, limit)
	}
}
