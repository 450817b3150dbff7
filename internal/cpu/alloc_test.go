package cpu

import "testing"

// TestRunGatedAllocationFree pins the grow-once contract of the SoA
// pipeline state: the ROB/IFQ rings, issue-queue ready lists, wake lists,
// and MSHR array are all sized at construction (ready/pending to their
// queue capacities), so every batched entry point must run without
// touching the heap from the very first chunk. Run is RunGated with
// fetch gating only, so the ungated and fetch-gated rows cover it too.
func TestRunGatedAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		gates Gates
	}{
		{"ungated", Gates{}},
		{"fetch-gated", Gates{Fetch: 1.0 / 3}},
		{"issue-gated", Gates{Int: 0.5, Mem: 0.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCore(t, testProfile())
			var act Activity
			if _, err := c.RunGated(300_000, tc.gates, &act); err != nil { // steady state
				t.Fatal(err)
			}
			step := func() {
				if _, err := c.RunGated(10_000, tc.gates, &act); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
				t.Errorf("RunGated(%s) allocates %.1f times per chunk, want 0", tc.name, allocs)
			}
		})
	}
}
