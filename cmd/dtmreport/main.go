// Command dtmreport aggregates the artifacts other tools leave behind —
// provenance manifests, schema-v1 JSONL traces, results documents, and
// BENCH_*.json perf snapshots — into one self-contained report: thermal
// timelines with inline SVG charts, DTM residency and switch-count
// tables, the paper's policy comparison checked against its golden
// envelopes, and the perf trajectory across snapshots.
//
// Usage:
//
//	dtmreport -o report.html [-md report.md] DIR [DIR ...]
//	dtmreport -compare-base BENCH_a.json -compare-head BENCH_b.json [-threshold 0.10] [-compare-metrics m1,m2]
//
// Report mode classifies every file in the given directories by content
// (.jsonl traces; .json by its "kind" field), so artifact naming is free.
// Output is deterministic: the same inputs always render the same bytes.
//
// Compare mode diffs two perf snapshots and exits 1 when any metric
// regressed past the threshold (CI's perf gate); -compare-metrics
// restricts the gate to the named metrics and exits 1 when either
// snapshot lacks one of them. Compare mode takes no positional
// arguments: a stray one is a usage error, since Go's flag parsing would
// otherwise stop there and drop every flag after it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hybriddtm/internal/obs"
	"hybriddtm/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dtmreport:", err)
		os.Exit(1)
	}
}

// errRegression distinguishes the perf-gate failure from operational
// errors (both exit 1, but the message differs).
type errRegression struct{ table string }

func (e errRegression) Error() string {
	return "performance regression past threshold\n" + e.table
}

func run() error {
	htmlOut := flag.String("o", "", "write the HTML report to this file (- for stdout)")
	mdOut := flag.String("md", "", "also write a Markdown report to this file (- for stdout)")
	compareBase := flag.String("compare-base", "", "compare mode: baseline BENCH_*.json snapshot")
	compareHead := flag.String("compare-head", "", "compare mode: head BENCH_*.json snapshot")
	threshold := flag.Float64("threshold", 0.10, "compare mode: fractional regression threshold (0.10 = 10%)")
	compareMetrics := flag.String("compare-metrics", "", "compare mode: comma-separated metric names to gate on (default: all shared metrics)")
	flag.Parse()

	if (*compareBase != "") != (*compareHead != "") {
		return fmt.Errorf("-compare-base and -compare-head must be given together")
	}
	if *compareBase != "" {
		// flag.Parse stops at the first positional argument, so any flag
		// after one would be silently dropped.
		if flag.NArg() > 0 {
			return fmt.Errorf("compare mode takes no positional arguments, got %q (usage: dtmreport -compare-base A.json -compare-head B.json [-threshold T] [-compare-metrics m1,m2])", flag.Args())
		}
		return compare(*compareBase, *compareHead, *threshold, *compareMetrics)
	}

	dirs := flag.Args()
	if len(dirs) == 0 {
		return fmt.Errorf("no input directories (usage: dtmreport -o report.html DIR ...)")
	}
	if *htmlOut == "" && *mdOut == "" {
		return fmt.Errorf("no output requested (-o and/or -md)")
	}
	rep, err := report.LoadDir(dirs...)
	if err != nil {
		return err
	}
	if len(rep.Manifests)+len(rep.Traces)+len(rep.Results)+len(rep.Snapshots)+len(rep.StageProfiles) == 0 {
		return fmt.Errorf("no report artifacts found under %s", strings.Join(dirs, ", "))
	}
	if *htmlOut != "" {
		if err := emit(*htmlOut, rep.HTML()); err != nil {
			return err
		}
	}
	if *mdOut != "" {
		if err := emit(*mdOut, rep.Markdown()); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "dtmreport: %d manifest(s), %d trace(s), %d results doc(s), %d snapshot(s), %d stage profile(s), %d check(s)\n",
		len(rep.Manifests), len(rep.Traces), len(rep.Results), len(rep.Snapshots), len(rep.StageProfiles), len(rep.Checks))
	for _, c := range rep.Checks {
		if !c.Pass {
			fmt.Fprintf(os.Stderr, "dtmreport: envelope FAIL: %s (%s)\n", c.Name, c.Detail)
		}
	}
	return nil
}

// emit writes data to path, or stdout for "-".
func emit(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// compare runs the snapshot comparator and fails on regression.
func compare(basePath, headPath string, threshold float64, metricList string) error {
	base, err := obs.LoadBenchSnapshot(basePath)
	if err != nil {
		return err
	}
	head, err := obs.LoadBenchSnapshot(headPath)
	if err != nil {
		return err
	}
	var only []string
	if metricList != "" {
		for _, name := range strings.Split(metricList, ",") {
			if name = strings.TrimSpace(name); name != "" {
				only = append(only, name)
			}
		}
	}
	deltas, missing, regressed := obs.CompareBench(base, head, threshold, only)
	if len(missing) > 0 {
		return fmt.Errorf("named metric(s) missing: %s", strings.Join(missing, ", "))
	}
	if len(deltas) == 0 {
		return fmt.Errorf("snapshots share no comparable metrics")
	}
	table := obs.FormatDeltas(deltas)
	if suspect := stageSuspect(base, head, deltas); suspect != "" {
		table += suspect + "\n"
	}
	if regressed {
		return errRegression{table: table}
	}
	fmt.Print(table)
	fmt.Printf("no regression past %.0f%% (%s → %s)\n", 100*threshold, obs.BenchFileName(base.GitSHA), obs.BenchFileName(head.GitSHA))
	return nil
}

// stageSuspect names the stage whose attributed share of coupled-loop
// time grew the most between the snapshots — the first place to look —
// but only when sim.insts_per_sec actually regressed. Empty when
// throughput held, when the snapshots carry no sim.stage.*_frac metrics
// (profiling wasn't on), or when no shared stage grew.
func stageSuspect(base, head obs.BenchSnapshot, deltas []obs.BenchDelta) string {
	regressedTput := false
	for _, d := range deltas {
		if d.Name == "sim.insts_per_sec" && d.Regression {
			regressedTput = true
			break
		}
	}
	if !regressedTput {
		return ""
	}
	suspect, growth := "", 0.0
	for _, m := range head.Metrics {
		if !strings.HasPrefix(m.Name, obs.MetricStagePrefix) || !strings.HasSuffix(m.Name, "_frac") {
			continue
		}
		bm, ok := base.Metric(m.Name)
		if !ok {
			continue
		}
		if g := m.Value - bm.Value; g > growth {
			suspect, growth = m.Name, g
		}
	}
	if suspect == "" {
		return ""
	}
	stage := strings.TrimSuffix(strings.TrimPrefix(suspect, obs.MetricStagePrefix), "_frac")
	return fmt.Sprintf("sim.insts_per_sec regressed; fastest-growing stage: %s (+%.1f pts of attributed loop time)", stage, 100*growth)
}
