package cpu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"hybriddtm/internal/trace"
)

// kernelDigests pins the pipeline's behaviour on all nine benchmark
// profiles under digestSchedule: the sha256 of every chunk's Activity (as
// digestWords lays it out) plus the core's cycle and committed counts
// after it. Unlike the
// batched-vs-reference diffs, which share every pipeline stage, these
// values were recorded from an earlier implementation of the stages, so a
// change to any stage that moves a single counter fails here. They are a
// specification: a change that means to keep results must not edit them.
var kernelDigests = map[string]string{
	"mesa":    "e99285f2670a8fbed12d27158ca8ce06c0d4a1eaf28509f672bd71787aab251e",
	"perlbmk": "43af96b94c66fa3b615c34e921f804a21ef710112c8bf395c11ce9aca34a82ea",
	"gzip":    "a92ef149c150a3a5bea97ccda982a551976778141f4a20ae1222c198bfa41eac",
	"bzip2":   "b10e7abda685e6fc0fa2ba6ca646709a356d5d18730189c1528f6f05ba0c1616",
	"eon":     "c8289e595981d3a4808deb38702306713d330b9d34c7271ba7ee927fb37f09c5",
	"crafty":  "e011c482c31888ca3d3bc163c9b833e8bb338459f802386d481d8471c791b650",
	"vortex":  "367593d12b286e9fcef02998738ad3bbb23e843c91f3a4e88ce79b33def33056",
	"gcc":     "900ed4d7bd60e4b10c16880c9bddf5bfc81a92b6a8be7e29808d648290d8ab3b",
	"art":     "93db2d415f532707067d5bfc6ef59f4ceac6194f045df28f7b0aa82e77002ae3",
}

// digestSchedule is 300 thermal-step-sized chunks cycling through the
// kernel paths the DTM policies drive: no gating, fetch gating at 1/3,
// fetch 0.5 with integer issue gating 0.2 (the reference loop inside the
// batched path), and fetch 0.1, with the frequency ratio switching between
// 1 and 0.8 every 25 chunks.
func digestSchedule() []chunk {
	gates := [...]Gates{{}, {Fetch: 1.0 / 3}, {Fetch: 0.5, Int: 0.2}, {Fetch: 0.1}}
	s := make([]chunk, 300)
	for k := range s {
		s[k] = chunk{n: 10_000, gates: gates[k%len(gates)]}
		if k%25 == 0 {
			s[k].ratio = 1
			if k/25%2 == 1 {
				s[k].ratio = 0.8
			}
		}
	}
	return s
}

// digestWords lays act out as the 23 little-endian words the recorded
// digests hash: Activity's fields in order, from when the I-TLB, D-cache
// and D-TLB access counts were counters of their own. Each of those three
// words is written from the counter it always equalled: FetchGroups for the
// I-TLB, MemIssued for the D-cache and D-TLB.
func digestWords(a *Activity) [23]uint64 {
	return [23]uint64{
		a.Cycles, a.Committed, a.Fetched, a.GatedCycles,
		a.FetchGroups, a.ICacheMisses, a.BPredAccesses, a.FetchGroups,
		a.IntDispatched, a.FPDispatched, a.MemDispatched,
		a.IntIssued, a.IntMulIssued, a.FPAddIssued, a.FPMulIssued, a.MemIssued,
		a.IntRegReads, a.IntRegWrites, a.FPRegReads, a.FPRegWrites,
		a.MemIssued, a.MemIssued, a.L2Accesses,
	}
}

// scheduleDigest runs the profile through digestSchedule and hashes the
// per-chunk activity and the running cycle and committed counts.
func scheduleDigest(t *testing.T, p trace.Profile, reference bool) string {
	t.Helper()
	g, err := trace.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(DefaultConfig(), g)
	if err != nil {
		t.Fatal(err)
	}
	c.UseReferencePipeline(reference)
	h := sha256.New()
	for _, ch := range digestSchedule() {
		if ch.ratio != 0 {
			if err := c.SetFrequencyRatio(ch.ratio); err != nil {
				t.Fatal(err)
			}
		}
		var act Activity
		if _, err := c.RunGated(ch.n, ch.gates, &act); err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(h, binary.LittleEndian, digestWords(&act)); err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(h, binary.LittleEndian, [2]uint64{c.Cycle(), c.Committed()}); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKernelDigests checks both pipeline loops against the recorded
// digests for every benchmark profile.
func TestKernelDigests(t *testing.T) {
	if n := binary.Size(Activity{}) / 8; n != 20 {
		t.Fatalf("Activity has %d counters, digestWords reads 20: lay the new ones out there", n)
	}
	for _, p := range trace.Benchmarks() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			want, ok := kernelDigests[p.Name]
			if !ok {
				t.Fatalf("no recorded digest for %s", p.Name)
			}
			if got := scheduleDigest(t, p, false); got != want {
				t.Errorf("batched digest %s, want %s", got, want)
			}
			if got := scheduleDigest(t, p, true); got != want {
				t.Errorf("reference digest %s, want %s", got, want)
			}
		})
	}
}
