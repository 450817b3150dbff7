package obs

import (
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
)

func testSnapshot(t *testing.T, instsPerSec float64) BenchSnapshot {
	t.Helper()
	reg := NewRegistry()
	reg.Counter(MetricInstructions).Add(int64(instsPerSec * 2))
	reg.Counter(MetricPoolJobs).Add(10)
	reg.Counter(MetricThermalSteps).Add(1000)
	reg.Counter(MetricEvents).Add(5000)
	for _, s := range []float64{0.01, 0.02, 0.02, 0.04, 0.5} {
		reg.Histogram(MetricPoolJobSeconds).Observe(s)
	}
	return CaptureBench(reg, 2*time.Second, 4, time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC))
}

// TestCaptureBenchRoundTrip: the snapshot schema survives a disk
// round-trip and the rates are the registry totals over elapsed time.
func TestCaptureBenchRoundTrip(t *testing.T) {
	snap := testSnapshot(t, 1e6)
	if snap.Workers != 4 || snap.ElapsedS != 2 {
		t.Errorf("workers/elapsed = %d/%v", snap.Workers, snap.ElapsedS)
	}
	m, ok := snap.Metric("sim.insts_per_sec")
	if !ok || m.Value != 1e6 {
		t.Errorf("insts_per_sec = %+v, want 1e6", m)
	}
	if m, ok := snap.Metric("pool.jobs_per_sec"); !ok || m.Value != 5 {
		t.Errorf("jobs_per_sec = %+v, want 5", m)
	}
	if _, ok := snap.Metric("pool.job_s_p99"); !ok {
		t.Error("latency percentiles missing despite observations")
	}
	if runtime.GOOS == "linux" {
		if m, ok := snap.Metric("proc.peak_rss_bytes"); !ok || m.Value <= 0 {
			t.Errorf("peak RSS on linux = %+v, want > 0", m)
		}
	}

	path := filepath.Join(t.TempDir(), BenchFileName(snap.GitSHA))
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBenchSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != len(snap.Metrics) {
		t.Fatalf("metric count %d != %d", len(got.Metrics), len(snap.Metrics))
	}
	for i := range got.Metrics {
		if got.Metrics[i] != snap.Metrics[i] {
			t.Errorf("metric %d: %+v != %+v", i, got.Metrics[i], snap.Metrics[i])
		}
	}
}

// TestCaptureBenchUnmeasuredRates: a registry that observed nothing (a
// loadgen aimed at a remote server captures its empty local registry)
// and a zero elapsed time both leave the rates out rather than writing
// 0, so a gate naming one reports it missing instead of passing on a 0
// base.
func TestCaptureBenchUnmeasuredRates(t *testing.T) {
	start := time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC)
	rates := []string{"pool.jobs_per_sec", "sim.insts_per_sec", "sim.steps_per_sec", "sim.events_per_sec"}
	empty := CaptureBench(NewRegistry(), 2*time.Second, 4, start)
	for _, name := range rates {
		if m, ok := empty.Metric(name); ok {
			t.Errorf("empty registry wrote %s = %v", name, m.Value)
		}
	}
	reg := NewRegistry()
	reg.Counter(MetricInstructions).Add(1000)
	if m, ok := CaptureBench(reg, 0, 4, start).Metric("sim.insts_per_sec"); ok {
		t.Errorf("zero elapsed wrote sim.insts_per_sec = %v", m.Value)
	}
	_, missing, _ := CompareBench(empty, testSnapshot(t, 1e6), 0.10, []string{"sim.insts_per_sec"})
	if !reflect.DeepEqual(missing, []string{"sim.insts_per_sec (not in base)"}) {
		t.Errorf("gate on an unmeasured base: missing %q, want it reported", missing)
	}
}

// TestCompareBench: direction-aware regression flagging with a threshold,
// plus the name filter CI's throughput gate uses.
func TestCompareBench(t *testing.T) {
	base := testSnapshot(t, 1e6)
	head := testSnapshot(t, 8e5) // 20% throughput drop

	deltas, _, regressed := CompareBench(base, head, 0.10, nil)
	if !regressed {
		t.Fatalf("20%% throughput drop not flagged at 10%% threshold:\n%s", FormatDeltas(deltas))
	}
	found := false
	for _, d := range deltas {
		if d.Name == "sim.insts_per_sec" {
			found = true
			if !d.Regression {
				t.Error("insts_per_sec drop not marked as regression")
			}
			if d.Change > -0.19 || d.Change < -0.21 {
				t.Errorf("change = %v, want ≈ -0.20", d.Change)
			}
		}
		if d.Name == "pool.jobs_per_sec" && d.Regression {
			t.Error("unchanged jobs_per_sec flagged")
		}
	}
	if !found {
		t.Error("insts_per_sec missing from deltas")
	}

	// Within threshold: no flag.
	if _, _, reg := CompareBench(base, head, 0.25, nil); reg {
		t.Error("20% drop flagged at 25% threshold")
	}
	// Filtered to an unaffected metric: no flag.
	if ds, _, reg := CompareBench(base, head, 0.10, []string{"pool.jobs_per_sec"}); reg || len(ds) != 1 {
		t.Errorf("filtered compare = %d deltas, regressed=%v", len(ds), reg)
	}
	// A named metric absent from one snapshot is reported, not skipped.
	ds, missing, _ := CompareBench(base, head, 0.10, []string{"sim.insts_per_sec", "serve.jobs_per_sec"})
	if len(ds) != 1 || !reflect.DeepEqual(missing, []string{"serve.jobs_per_sec (not in base)", "serve.jobs_per_sec (not in head)"}) {
		t.Errorf("compare with a missing metric = %d deltas, missing %q", len(ds), missing)
	}
	// Lower-is-better direction: a latency increase is a regression.
	lbase := BenchSnapshot{Kind: KindBench, Schema: 1, Metrics: []BenchMetric{{Name: "pool.job_s_p99", Value: 1, Better: BetterLower}}}
	lhead := BenchSnapshot{Kind: KindBench, Schema: 1, Metrics: []BenchMetric{{Name: "pool.job_s_p99", Value: 1.5, Better: BetterLower}}}
	if _, _, reg := CompareBench(lbase, lhead, 0.10, nil); !reg {
		t.Error("50% latency increase not flagged")
	}
	if _, _, reg := CompareBench(lhead, lbase, 0.10, nil); reg {
		t.Error("latency improvement flagged as regression")
	}
}

func TestBenchSnapshotAdd(t *testing.T) {
	var s BenchSnapshot
	s.Add("m.b", "x/s", 2, BetterHigher)
	s.Add("m.d", "x/s", 4, BetterHigher)
	s.Add("m.a", "x/s", 1, BetterHigher)
	s.Add("m.c", "x/s", 3, BetterLower)
	var names []string
	for _, m := range s.Metrics {
		names = append(names, m.Name)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("Add left metrics unsorted: %v", names)
	}
	if len(s.Metrics) != 4 {
		t.Fatalf("%d metrics, want 4", len(s.Metrics))
	}
	// Same-name Add overwrites in place.
	s.Add("m.c", "y/s", 30, BetterHigher)
	if len(s.Metrics) != 4 {
		t.Fatalf("overwrite grew metrics to %d", len(s.Metrics))
	}
	m, ok := s.Metric("m.c")
	if !ok || m.Value != 30 || m.Unit != "y/s" || m.Better != BetterHigher {
		t.Errorf("overwrite kept stale metric: %+v", m)
	}
}
