// The live dashboard: GET /v1/dashboard renders the server's current
// state — job table, queue/worker occupancy, latency histograms with
// sparklines, and inline-SVG thermal timelines for jobs holding an event
// ring — as one self-contained HTML page, reusing internal/report's
// deterministic renderers so a running job's chart is byte-identical to
// the one dtmreport produces from its finished trace.
//
// GET /v1/dashboard/stream is the SSE variant: the occupancy/job-count
// state as application-defined "data:" JSON frames at a polling interval,
// for dashboards that update without reloading. The frames carry no SVG
// (clients re-fetch the page for charts); they are intentionally small.
//
// Everything rendered here is a pure function of (frozen clock, job
// table, registry, rings), which is what makes the dashboard golden test
// byte-stable.
package serve

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hybriddtm/internal/obs"
	"hybriddtm/internal/report"
)

// dashboardHistograms fixes the histogram display order.
var dashboardHistograms = []struct {
	Name string
	Unit string // sample unit for the table ("s" or "B")
}{
	{obs.MetricServeQueueWait, "s"},
	{obs.MetricServeRunSecs, "s"},
	{obs.MetricServeJobSeconds, "s"},
	{obs.MetricServeTraceTTFB, "s"},
	{obs.MetricServeRespBytes, "B"},
}

// dashboardState is the SSE frame: the dashboard's numbers without its
// markup.
type dashboardState struct {
	Status   string  `json:"status"`
	UptimeS  float64 `json:"uptime_s"`
	Workers  int     `json:"workers"`
	QueueCap int     `json:"queue_capacity"`
	Queued   int     `json:"queued"`
	Running  int     `json:"running"`
	Done     int     `json:"done"`
	Failed   int     `json:"failed"`
	Canceled int     `json:"canceled"`
	Jobs     int     `json:"jobs"`
}

// snapshotState collects the occupancy numbers under the server mutex.
func (s *Server) snapshotState() dashboardState {
	// Same monotonic uptime source as /healthz (see handleHealth).
	uptime := s.sinceStart().Seconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := dashboardState{
		Status:   "ok",
		UptimeS:  uptime,
		Workers:  s.cfg.Workers,
		QueueCap: s.cfg.QueueDepth,
		Jobs:     len(s.jobs),
	}
	if s.draining {
		st.Status = "draining"
	}
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCanceled:
			st.Canceled++
		}
	}
	return st
}

// ringJob pairs a job id with the summary of its retained events.
type ringJob struct {
	id      string
	state   string
	summary report.TraceSummary
}

// snapshotRings summarizes every job still holding an event ring, in
// submission order. Ring snapshots deep-copy under the ring's own lock,
// so this is safe against workers emitting concurrently.
func (s *Server) snapshotRings() []ringJob {
	s.mu.Lock()
	type held struct {
		id, state string
		ring      *obs.Ring
	}
	var rings []held
	for _, id := range s.order {
		if j := s.jobs[id]; j.ring != nil {
			rings = append(rings, held{id: j.id, state: j.state, ring: j.ring})
		}
	}
	s.mu.Unlock()
	out := make([]ringJob, 0, len(rings))
	for _, h := range rings {
		meta, events := h.ring.Snapshot()
		sum := report.SummarizeEvents(meta, events, h.id)
		sum.Events = int64(h.ring.Total())
		out = append(out, ringJob{id: h.id, state: h.state, summary: sum})
	}
	return out
}

func fmtQuantile(v float64, unit string) string {
	if unit == "B" {
		return fmt.Sprintf("%.0fB", v)
	}
	return fmt.Sprintf("%.3gms", v*1e3)
}

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	st := s.snapshotState()
	s.mu.Lock()
	jobs := make([]statusResponse, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.statusLocked(s.jobs[id]))
	}
	s.mu.Unlock()
	rings := s.snapshotRings()

	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>dtmserve dashboard</title>
<style>
body { font-family: sans-serif; margin: 2em auto; max-width: 64em; color: #222; }
h1 { border-bottom: 2px solid #2980b9; padding-bottom: 0.2em; }
h2 { margin-top: 1.6em; border-bottom: 1px solid #ccc; padding-bottom: 0.15em; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.6em; font-size: 0.92em; text-align: left; }
th { background: #f2f2f2; }
td:first-child { font-family: monospace; }
.state-running { color: #2980b9; font-weight: bold; }
.state-failed, .state-canceled { color: #c0392b; }
.state-done { color: #27ae60; }
.nodata { color: #888; font-style: italic; }
svg { vertical-align: middle; }
p.meta { color: #555; }
</style>
</head>
<body>
<h1>dtmserve dashboard</h1>
`)
	fmt.Fprintf(&b, "<p class=\"meta\">status %s · up %.0fs · %d/%d workers busy · queue %d/%d · %d job(s)</p>\n",
		html.EscapeString(st.Status), st.UptimeS, st.Running, st.Workers, st.Queued, st.QueueCap, st.Jobs)

	// Latency/size histograms with per-bucket sparklines.
	b.WriteString("<h2>Histograms</h2>\n<table>\n<tr><th>metric</th><th>count</th><th>p50</th><th>p90</th><th>p99</th><th>buckets</th></tr>\n")
	for _, hm := range dashboardHistograms {
		h := s.reg.Histogram(hm.Name)
		fmt.Fprintf(&b, "<tr><td>%s</td>", html.EscapeString(hm.Name))
		if h.Count() == 0 {
			b.WriteString(`<td>0</td><td colspan="4" class="nodata">no data yet</td></tr>` + "\n")
			continue
		}
		_, counts := h.Buckets()
		shape := make([]float64, len(counts))
		for i, c := range counts {
			shape[i] = float64(c)
		}
		fmt.Fprintf(&b, "<td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			h.Count(),
			fmtQuantile(h.Quantile(0.5), hm.Unit),
			fmtQuantile(h.Quantile(0.9), hm.Unit),
			fmtQuantile(h.Quantile(0.99), hm.Unit),
			report.Sparkline(shape, 120, 24, "#2980b9"))
	}
	b.WriteString("</table>\n")

	// Where the time goes: the most recent job's per-stage coupled-loop
	// attribution (servers running with StageProfile only, so the section
	// is absent — and goldens unchanged — on profile-off servers).
	if doc, ok := s.StageProfileDoc(); ok {
		b.WriteString("<h2>Stage attribution</h2>\n")
		fmt.Fprintf(&b, "<p class=\"meta\">last profiled job: %s under %s · %d steps timed</p>\n",
			html.EscapeString(doc.Benchmark), html.EscapeString(doc.Policy), doc.Steps)
		b.WriteString("<table>\n<tr><th>stage</th><th>group</th><th>share</th><th>time</th></tr>\n")
		for _, rec := range doc.Stages {
			if rec.Invocations == 0 {
				continue
			}
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%.1f%%</td><td>%.3gms</td></tr>\n",
				html.EscapeString(rec.Name), html.EscapeString(rec.Group),
				100*rec.Frac, float64(rec.Nanos)/1e6)
		}
		b.WriteString("</table>\n")
	}

	// Job table, submission order.
	b.WriteString("<h2>Jobs</h2>\n")
	if len(jobs) == 0 {
		b.WriteString("<p class=\"nodata\">no jobs submitted yet</p>\n")
	} else {
		b.WriteString("<table>\n<tr><th>id</th><th>state</th><th>benchmark</th><th>policy</th><th>cached</th><th>submitted</th><th>finished</th></tr>\n")
		for _, j := range jobs {
			cached := ""
			if j.Cached {
				cached = "yes"
			}
			fmt.Fprintf(&b, "<tr><td>%s</td><td class=\"state-%s\">%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
				html.EscapeString(j.ID), html.EscapeString(j.State), html.EscapeString(j.State),
				html.EscapeString(j.Benchmark), html.EscapeString(j.Policy), cached,
				html.EscapeString(j.Submitted), html.EscapeString(j.Finished))
		}
		b.WriteString("</table>\n")
	}

	// Thermal timelines for jobs holding a ring (running or recent).
	b.WriteString("<h2>Thermal timelines</h2>\n")
	if len(rings) == 0 {
		b.WriteString("<p class=\"nodata\">no live event rings (span tracing off, or nothing has run)</p>\n")
	}
	for _, rj := range rings {
		fmt.Fprintf(&b, "<h3>%s (%s): %s under %s</h3>\n",
			html.EscapeString(rj.id), html.EscapeString(rj.state),
			html.EscapeString(rj.summary.Benchmark), html.EscapeString(rj.summary.Policy))
		svgs := report.TimelineSVGs(rj.summary)
		if len(svgs) == 0 {
			b.WriteString("<p class=\"nodata\">waiting for step events</p>\n")
			continue
		}
		for _, svg := range svgs {
			b.WriteString(svg)
			b.WriteString("\n")
		}
	}
	b.WriteString("</body>\n</html>\n")

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String())) //dtmlint:allow errsink response write; delivery failures are the client's
}

// handleDashboardStream serves the dashboard state as SSE frames. Query
// parameters bound the stream for tests and curl: ?count=N stops after N
// frames (0 = until the client disconnects), ?interval_ms=M overrides
// the 1s default frame interval.
func (s *Server) handleDashboardStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "no_stream", "response writer cannot stream")
		return
	}
	interval := time.Second
	if ms, err := strconv.Atoi(r.URL.Query().Get("interval_ms")); err == nil && ms > 0 {
		interval = time.Duration(ms) * time.Millisecond
	}
	count := 0
	if n, err := strconv.Atoi(r.URL.Query().Get("count")); err == nil && n > 0 {
		count = n
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	for sent := 0; ; sent++ {
		if count > 0 && sent >= count {
			return
		}
		if sent > 0 {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(interval):
			}
		}
		st := s.snapshotState()
		frame, err := json.Marshal(st)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "event: state\ndata: %s\n\n", frame); err != nil {
			return
		}
		flusher.Flush()
	}
}
