// Rendering: the Report → Markdown and → self-contained HTML. Both views
// share the same table builders; HTML additionally inlines the SVG
// timelines. Nothing here reads the clock or the environment — output is
// a pure function of the loaded artifacts.
package report

import (
	"fmt"
	"html"
	"strings"
	"time"

	"hybriddtm/internal/obs"
	"hybriddtm/internal/stats"
)

// seriesColors for the timeline charts.
const (
	colorTemp      = "#c0392b"
	colorTrigger   = "#e67e22"
	colorEmergency = "#8e44ad"
	colorGate      = "#2980b9"
	colorLevel     = "#27ae60"
)

func fmtTime(t time.Time) string {
	if t.IsZero() {
		return "-"
	}
	return t.UTC().Format(time.RFC3339)
}

func fmtSHA(sha string, dirty bool) string {
	if sha == "" {
		return "-"
	}
	if len(sha) > 12 {
		sha = sha[:12]
	}
	if dirty {
		sha += "+dirty"
	}
	return sha
}

func fmtPct(fraction float64) string { return fmt.Sprintf("%.1f%%", 100*fraction) }

// table is one rendered table: a header row and body rows.
type table struct {
	Head []string
	Rows [][]string
}

// section is one report section: heading, optional prose, tables, and
// optional pre-rendered SVG charts (HTML only).
type section struct {
	Title  string
	Prose  []string
	Tables []table
	SVGs   []string
}

// sections builds the full report structure shared by both renderers.
func (r *Report) sections() []section {
	var out []section

	if len(r.Manifests) > 0 {
		t := table{Head: []string{"tool", "start (UTC)", "wall clock", "config", "revision", "go", "platform", "workers", "benchmarks"}}
		for _, m := range r.Manifests {
			t.Rows = append(t.Rows, []string{
				m.Tool,
				fmtTime(m.Start),
				fmt.Sprintf("%.2fs", m.WallClockS),
				m.ConfigHash,
				fmtSHA(m.GitSHA, m.GitDirty),
				m.GoVersion,
				fmt.Sprintf("%s/%s ×%d", m.GOOS, m.GOARCH, m.NumCPU),
				fmt.Sprintf("%d", m.Workers),
				strings.Join(m.Benchmarks, " "),
			})
		}
		out = append(out, section{Title: "Runs", Tables: []table{t}})
	}

	for _, tr := range r.Traces {
		out = append(out, traceSection(tr))
	}

	if sec, ok := r.comparisonSection(); ok {
		out = append(out, sec)
	}

	if len(r.Snapshots) > 0 {
		t := table{Head: []string{"revision", "start (UTC)", "go", "workers", "insts/s", "jobs/s", "job p50", "peak RSS"}}
		for _, s := range r.Snapshots {
			val := func(name, format string, scale float64) string {
				m, ok := s.Metric(name)
				if !ok {
					return "-"
				}
				return fmt.Sprintf(format, m.Value*scale)
			}
			t.Rows = append(t.Rows, []string{
				fmtSHA(s.GitSHA, s.GitDirty),
				fmtTime(s.Start),
				s.GoVersion,
				fmt.Sprintf("%d", s.Workers),
				val("sim.insts_per_sec", "%.3g", 1),
				val("pool.jobs_per_sec", "%.3g", 1),
				val("pool.job_s_p50", "%.3gms", 1e3),
				val("proc.peak_rss_bytes", "%.1fMB", 1.0/(1<<20)),
			})
		}
		out = append(out, section{
			Title:  "Performance trajectory",
			Prose:  []string{fmt.Sprintf("%d snapshot(s), oldest first. Rates are per run, not comparable across hosts.", len(r.Snapshots))},
			Tables: []table{t},
		})
	}

	for _, sp := range r.StageProfiles {
		out = append(out, stageSection(sp))
	}

	if len(r.Skipped) > 0 {
		t := table{Head: []string{"file"}}
		for _, s := range r.Skipped {
			t.Rows = append(t.Rows, []string{s})
		}
		out = append(out, section{Title: "Skipped inputs", Tables: []table{t}})
	}
	return out
}

// traceSection renders one trace's thermal timeline and residency.
func traceSection(tr TraceSummary) section {
	sec := section{Title: fmt.Sprintf("Timeline: %s under %s", tr.Benchmark, tr.Policy)}
	sec.Prose = append(sec.Prose, fmt.Sprintf(
		"%s — %d events over %.3g simulated ms (trigger %.1f °C, emergency %.1f °C).",
		tr.File, tr.Events, tr.Duration*1e3, tr.Trigger, tr.Emergency))

	res := table{Head: []string{"residency", "share of stepped time"}}
	res.Rows = append(res.Rows,
		[]string{"above trigger", fmtPct(frac(tr.AboveTrigger, tr.Duration))},
		[]string{"fetch gate engaged", fmtPct(frac(tr.Gated, tr.Duration))},
		[]string{"low V/f level", fmtPct(frac(tr.LowV, tr.Duration))},
		[]string{"clock stopped", fmtPct(frac(tr.ClockStopped, tr.Duration))},
		[]string{"DVS switch stall", fmtPct(frac(tr.Stalled, tr.Duration))},
	)
	sw := table{Head: []string{"event", "count"}}
	sw.Rows = append(sw.Rows,
		[]string{"DVS switches", fmt.Sprintf("%d", tr.DVSSwitches)},
		[]string{"trigger crossings (up)", fmt.Sprintf("%d", tr.TriggerCrossings)},
		[]string{"emergency crossings (up)", fmt.Sprintf("%d", tr.EmergencyUp)},
	)
	sec.Tables = append(sec.Tables, res, sw)

	sec.SVGs = append(sec.SVGs, TimelineSVGs(tr)...)
	return sec
}

// TimelineSVGs renders a summary's thermal and actuator timelines as two
// self-contained SVG documents (nil with fewer than two samples). It is
// exported for the serve dashboard, which feeds it live ring-buffer
// summaries; dtmreport's HTML view uses the identical rendering, so a
// running job's chart matches its eventual report byte for byte.
func TimelineSVGs(tr TraceSummary) []string {
	if len(tr.Points) < 2 {
		return nil
	}
	xs := make([]float64, len(tr.Points))
	temps := make([]float64, len(tr.Points))
	gates := make([]float64, len(tr.Points))
	levels := make([]float64, len(tr.Points))
	for i, p := range tr.Points {
		xs[i] = p.T * 1e3 // ms reads better at simulation scale
		temps[i] = p.MaxTemp
		gates[i] = p.Gate
		levels[i] = float64(p.Level)
	}
	thermal := chart{
		Title:  fmt.Sprintf("%s / %s: hottest block temperature", tr.Benchmark, tr.Policy),
		XLabel: "simulated time (ms)", YLabel: "°C",
		Series: []series{{Name: "max temp", Color: colorTemp, X: xs, Y: temps}},
		HLines: []hline{
			{Name: "trigger", Color: colorTrigger, Y: tr.Trigger},
			{Name: "emergency", Color: colorEmergency, Y: tr.Emergency},
		},
	}
	actuate := chart{
		Title:  fmt.Sprintf("%s / %s: actuator state", tr.Benchmark, tr.Policy),
		XLabel: "simulated time (ms)", YLabel: "gate / level",
		H: 160,
		Series: []series{
			{Name: "gate fraction", Color: colorGate, X: xs, Y: gates},
			{Name: "V/f level", Color: colorLevel, X: xs, Y: levels},
		},
	}
	return []string{thermal.SVG(), actuate.SVG()}
}

// stageGroupColors assigns each stage group a color from the report
// palette for the attribution bar.
var stageGroupColors = map[string]string{
	obs.StageGroupCPU:     colorGate,
	obs.StageGroupPower:   colorTrigger,
	obs.StageGroupThermal: colorTemp,
	obs.StageGroupPolicy:  colorLevel,
	obs.StageGroupTrace:   colorEmergency,
}

// stageSection renders one stage profile: where the coupled loop's wall
// time went, per stage and stacked by group.
func stageSection(sp obs.StageProfile) section {
	sec := section{Title: fmt.Sprintf("Where the time goes: %s under %s", sp.Benchmark, sp.Policy)}
	sec.Prose = append(sec.Prose, fmt.Sprintf(
		"%s — %d thermal steps timed, %.3g ms attributed.",
		sp.Tool, sp.Steps, float64(sp.AttributedNS)/1e6))

	t := table{Head: []string{"stage", "group", "share", "time", "invocations"}}
	for _, rec := range sp.Stages {
		if rec.Invocations == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			rec.Name,
			rec.Group,
			fmtPct(rec.Frac),
			fmt.Sprintf("%.3gms", float64(rec.Nanos)/1e6),
			fmt.Sprintf("%d", rec.Invocations),
		})
	}
	sec.Tables = append(sec.Tables, t)

	segs := make([]barSegment, 0, len(obs.StageGroups()))
	for _, g := range obs.StageGroups() {
		segs = append(segs, barSegment{Name: g, Color: stageGroupColors[g], Frac: sp.GroupFrac(g)})
	}
	sec.SVGs = append(sec.SVGs, stackedBar(
		fmt.Sprintf("%s / %s: attributed loop time by stage group", sp.Benchmark, sp.Policy),
		segs, 720))
	return sec
}

// comparisonSection renders the figure reproductions plus their envelope
// verdicts.
func (r *Report) comparisonSection() (section, bool) {
	sec := section{Title: "Policy comparison"}
	for _, doc := range r.Results {
		for _, sweep := range doc.Fig3a {
			mode := "DVS-ideal"
			if sweep.Stall {
				mode = "DVS-stall"
			}
			t := table{Head: []string{fmt.Sprintf("duty (%s)", mode), "mean slowdown", "violations"}}
			for _, row := range sweep.Rows {
				v := ""
				if row.Violations {
					v = "VIOLATED"
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%g", row.Duty), fmt.Sprintf("%.4f", row.MeanSlowdown), v,
				})
			}
			sec.Prose = append(sec.Prose, fmt.Sprintf("Figure 3a (%s): crossover at duty cycle %g.", mode, sweep.BestDuty))
			sec.Tables = append(sec.Tables, t)
		}
		for _, tbl := range doc.Fig4 {
			mode := "DVS-ideal"
			if tbl.Stall {
				mode = "DVS-stall"
			}
			t := table{Head: []string{fmt.Sprintf("policy (%s)", mode), "mean slowdown", "overhead cut vs DVS", "p (vs DVS)", "violations"}}
			for _, p := range tbl.Policies {
				cut, pval := "-", "-"
				if !stats.SameFloat(p.OverheadReduction, 0) || !stats.SameFloat(p.PValue, 0) {
					cut = fmtPct(p.OverheadReduction)
					pval = fmt.Sprintf("%.4g", p.PValue)
					if p.Significant99 {
						pval += " *"
					}
				}
				v := ""
				if p.Violations {
					v = "VIOLATED"
				}
				t.Rows = append(t.Rows, []string{p.Name, fmt.Sprintf("%.4f", p.Mean), cut, pval, v})
			}
			sec.Prose = append(sec.Prose, fmt.Sprintf("Figure 4 (%s) over %d benchmarks; * marks 99%% significance.", mode, len(tbl.Benchmarks)))
			sec.Tables = append(sec.Tables, t)
		}
	}
	if len(r.Checks) > 0 {
		t := table{Head: []string{"golden envelope check", "verdict", "detail"}}
		for _, c := range r.Checks {
			verdict := "PASS"
			if !c.Pass {
				verdict = "FAIL"
			}
			t.Rows = append(t.Rows, []string{c.Name, verdict, c.Detail})
		}
		sec.Tables = append(sec.Tables, t)
	}
	if len(sec.Tables) == 0 {
		return section{}, false
	}
	return sec, true
}

// Markdown renders the report as GitHub-flavored Markdown (tables only;
// the SVG timelines are an HTML-view feature).
func (r *Report) Markdown() []byte {
	var b strings.Builder
	b.WriteString("# Hybrid DTM run report\n")
	for _, sec := range r.sections() {
		fmt.Fprintf(&b, "\n## %s\n", sec.Title)
		for _, p := range sec.Prose {
			fmt.Fprintf(&b, "\n%s\n", p)
		}
		for _, t := range sec.Tables {
			b.WriteString("\n| " + strings.Join(t.Head, " | ") + " |\n")
			dashes := make([]string, len(t.Head))
			for i := range dashes {
				dashes[i] = "---"
			}
			b.WriteString("| " + strings.Join(dashes, " | ") + " |\n")
			for _, row := range t.Rows {
				b.WriteString("| " + strings.Join(row, " | ") + " |\n")
			}
		}
		if n := len(sec.SVGs); n > 0 {
			fmt.Fprintf(&b, "\n*%d timeline chart(s) in the HTML view.*\n", n)
		}
	}
	return []byte(b.String())
}

// HTML renders the report as one self-contained page: inline CSS, inline
// SVG, no external references.
func (r *Report) HTML() []byte {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Hybrid DTM run report</title>
<style>
body { font-family: sans-serif; margin: 2em auto; max-width: 60em; color: #222; }
h1 { border-bottom: 2px solid #c0392b; padding-bottom: 0.2em; }
h2 { margin-top: 1.6em; border-bottom: 1px solid #ccc; padding-bottom: 0.15em; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.6em; font-size: 0.92em; text-align: left; }
th { background: #f2f2f2; }
td:first-child { font-family: monospace; }
.fail { color: #c0392b; font-weight: bold; }
.pass { color: #27ae60; font-weight: bold; }
svg { display: block; margin: 0.8em 0; }
p.meta { color: #555; }
</style>
</head>
<body>
<h1>Hybrid DTM run report</h1>
`)
	for _, sec := range r.sections() {
		fmt.Fprintf(&b, "<h2>%s</h2>\n", html.EscapeString(sec.Title))
		for _, p := range sec.Prose {
			fmt.Fprintf(&b, "<p class=\"meta\">%s</p>\n", html.EscapeString(p))
		}
		for _, t := range sec.Tables {
			b.WriteString("<table>\n<tr>")
			for _, h := range t.Head {
				fmt.Fprintf(&b, "<th>%s</th>", html.EscapeString(h))
			}
			b.WriteString("</tr>\n")
			for _, row := range t.Rows {
				b.WriteString("<tr>")
				for _, cell := range row {
					class := ""
					switch cell {
					case "FAIL", "VIOLATED":
						class = ` class="fail"`
					case "PASS":
						class = ` class="pass"`
					}
					fmt.Fprintf(&b, "<td%s>%s</td>", class, html.EscapeString(cell))
				}
				b.WriteString("</tr>\n")
			}
			b.WriteString("</table>\n")
		}
		for _, svg := range sec.SVGs {
			b.WriteString(svg)
			b.WriteString("\n")
		}
	}
	b.WriteString("</body>\n</html>\n")
	return []byte(b.String())
}
