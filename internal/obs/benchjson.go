// Performance snapshots. A BenchSnapshot freezes one run's performance —
// simulated instructions per second, pool throughput, job-latency
// percentiles, trace event rate, peak RSS — into a stable BENCH_<sha>.json
// document, and CompareBench diffs two snapshots metric by metric against
// a regression threshold. Together they give the repo the recorded perf
// trajectory ROADMAP's "fast as the hardware allows" goal needs: every CI
// run appends a point, and a hot-path regression shows up as a flagged
// delta instead of a feeling.
//
// Schema stability contract: BENCH_*.json carries "kind":"bench" and a
// schema version. Metric *names* are append-only — a renamed metric is a
// removed one, and removals bump BenchSchemaVersion — so snapshots from
// different commits stay comparable. Values are host-dependent by nature;
// comparisons are only meaningful between runs on comparable hardware.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hybriddtm/internal/stats"
)

// BenchSchemaVersion identifies the BENCH_*.json schema.
const BenchSchemaVersion = 1

// KindBench is the "kind" discriminator of snapshot documents.
const KindBench = "bench"

// Directions for BenchMetric.Better.
const (
	BetterHigher = "higher"
	BetterLower  = "lower"
)

// BenchMetric is one measured performance number.
type BenchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Better string  `json:"better"` // "higher" or "lower"
}

// BenchSnapshot is one run's performance record.
type BenchSnapshot struct {
	Kind   string `json:"kind"` // always "bench"
	Schema int    `json:"schema"`

	GitSHA   string    `json:"git_sha,omitempty"`
	GitDirty bool      `json:"git_dirty,omitempty"`
	Start    time.Time `json:"start"`

	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`

	// Workers is the pool size the run used; rate metrics are per this
	// worker count (capture one snapshot per worker count to record a
	// scaling curve).
	Workers  int     `json:"workers"`
	ElapsedS float64 `json:"elapsed_s"`

	Metrics []BenchMetric `json:"metrics"`
}

// CaptureBench reads the registry's aggregate counters into a snapshot.
// elapsed is the measured wall-clock of the run the registry observed;
// start is injected by the caller (see Manifest). Metrics are emitted in
// sorted name order so encodings are stable.
func CaptureBench(reg *Registry, elapsed time.Duration, workers int, start time.Time) BenchSnapshot {
	sha, dirty := GitInfo()
	snap := BenchSnapshot{
		Kind:      KindBench,
		Schema:    BenchSchemaVersion,
		GitSHA:    sha,
		GitDirty:  dirty,
		Start:     start,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Workers:   workers,
		ElapsedS:  elapsed.Seconds(),
	}
	add := func(name, unit string, v float64, better string) {
		snap.Metrics = append(snap.Metrics, BenchMetric{Name: name, Unit: unit, Value: v, Better: better})
	}
	// A rate is emitted only when it was measured: a zero counter or
	// elapsed time would write a 0 that, used as a comparison base, no
	// gate can flag. Absent, a gated metric is reported missing instead.
	rate := func(name, unit, counter string) {
		if n := reg.Counter(counter).Value(); n > 0 && elapsed > 0 {
			add(name, unit, float64(n)/elapsed.Seconds(), BetterHigher)
		}
	}
	rate("pool.jobs_per_sec", "jobs/s", MetricPoolJobs)
	rate("sim.insts_per_sec", "insts/s", MetricInstructions)
	rate("sim.steps_per_sec", "steps/s", MetricThermalSteps)
	rate("sim.events_per_sec", "events/s", MetricEvents)
	h := reg.Histogram(MetricPoolJobSeconds)
	if h.Count() > 0 {
		add("pool.job_s_p50", "s", h.Quantile(0.50), BetterLower)
		add("pool.job_s_p90", "s", h.Quantile(0.90), BetterLower)
		add("pool.job_s_p99", "s", h.Quantile(0.99), BetterLower)
	}
	if rss := PeakRSS(); rss > 0 {
		add("proc.peak_rss_bytes", "bytes", float64(rss), BetterLower)
	}
	sort.Slice(snap.Metrics, func(i, j int) bool { return snap.Metrics[i].Name < snap.Metrics[j].Name })
	return snap
}

// Add inserts a metric keeping Metrics in sorted name order, so callers
// appending run-specific measurements (e.g. cmd/experiments' thermal
// micro-workload) preserve the stable-encoding property CaptureBench
// establishes. An existing metric with the same name is overwritten.
func (s *BenchSnapshot) Add(name, unit string, v float64, better string) {
	m := BenchMetric{Name: name, Unit: unit, Value: v, Better: better}
	i := sort.Search(len(s.Metrics), func(i int) bool { return s.Metrics[i].Name >= name })
	if i < len(s.Metrics) && s.Metrics[i].Name == name {
		s.Metrics[i] = m
		return
	}
	s.Metrics = append(s.Metrics, BenchMetric{})
	copy(s.Metrics[i+1:], s.Metrics[i:])
	s.Metrics[i] = m
}

// Metric returns the named metric's value, with ok=false when absent.
func (s BenchSnapshot) Metric(name string) (BenchMetric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return BenchMetric{}, false
}

// Validate checks the discriminator and schema version.
func (s BenchSnapshot) Validate() error {
	if s.Kind != KindBench {
		return fmt.Errorf("obs: bench snapshot kind %q, want %q", s.Kind, KindBench)
	}
	if s.Schema > BenchSchemaVersion || s.Schema < 1 {
		return fmt.Errorf("obs: bench schema %d not supported (have %d)", s.Schema, BenchSchemaVersion)
	}
	return nil
}

// BenchFileName returns the canonical snapshot file name for a revision:
// BENCH_<sha12>.json, or BENCH_local.json when no revision is known.
func BenchFileName(sha string) string {
	if sha == "" {
		sha = "local"
	}
	if len(sha) > 12 {
		sha = sha[:12]
	}
	return "BENCH_" + sha + ".json"
}

// WriteFile writes the snapshot as indented JSON.
func (s BenchSnapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: bench snapshot: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadBenchSnapshot reads and validates a snapshot file.
func LoadBenchSnapshot(path string) (BenchSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchSnapshot{}, err
	}
	var s BenchSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return BenchSnapshot{}, fmt.Errorf("obs: bench snapshot %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return BenchSnapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// BenchDelta is one metric's base→head comparison. Change is the
// fractional change of head relative to base ((head−base)/base).
type BenchDelta struct {
	Name       string
	Unit       string
	Base, Head float64
	Change     float64
	Regression bool
}

// CompareBench diffs two snapshots over the metrics they share (head's
// direction metadata wins) and flags any metric that moved in its worse
// direction by more than threshold (e.g. 0.10 for 10%). only, when
// non-empty, restricts the comparison to those metric names — CI gates on
// throughput alone, since latency percentiles are noisier across hosts —
// and every named metric absent from either snapshot comes back in
// missing, in the order named, as "name (not in base|head)", so a gate
// cannot pass without the number it gates on. Deltas come back in
// metric-name order;
// regressed reports whether any delta was flagged.
func CompareBench(base, head BenchSnapshot, threshold float64, only []string) (deltas []BenchDelta, missing []string, regressed bool) {
	want := make(map[string]bool, len(only))
	for _, name := range only {
		want[name] = true
		if _, ok := base.Metric(name); !ok {
			missing = append(missing, name+" (not in base)")
		}
		if _, ok := head.Metric(name); !ok {
			missing = append(missing, name+" (not in head)")
		}
	}
	for _, hm := range head.Metrics {
		if len(want) > 0 && !want[hm.Name] {
			continue
		}
		bm, ok := base.Metric(hm.Name)
		if !ok {
			continue
		}
		d := BenchDelta{Name: hm.Name, Unit: hm.Unit, Base: bm.Value, Head: hm.Value}
		if !stats.SameFloat(bm.Value, 0) {
			d.Change = (hm.Value - bm.Value) / bm.Value
		}
		switch hm.Better {
		case BetterHigher:
			d.Regression = d.Change < -threshold
		case BetterLower:
			d.Regression = d.Change > threshold
		}
		if d.Regression {
			regressed = true
		}
		deltas = append(deltas, d)
	}
	return deltas, missing, regressed
}

// FormatDeltas renders a comparison as an aligned table.
func FormatDeltas(deltas []BenchDelta) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %14s %14s %9s\n", "metric", "base", "head", "change")
	for _, d := range deltas {
		flag := ""
		if d.Regression {
			flag = "  REGRESSION"
		}
		fmt.Fprintf(&b, "%-24s %14.6g %14.6g %+8.1f%%%s\n", d.Name, d.Base, d.Head, 100*d.Change, flag)
	}
	return b.String()
}

// PeakRSS returns the process's peak resident set size in bytes, or 0
// where the information is unavailable (only Linux's /proc is consulted;
// other platforms simply omit the metric).
func PeakRSS() uint64 {
	if runtime.GOOS != "linux" {
		return 0
	}
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line) // VmHWM: <n> kB
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}
